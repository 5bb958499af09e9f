package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/dsu"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/lockfree"
	"repro/internal/metrics"
	"repro/internal/tracespan"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The ladder prices each layer by timing calls into its public functions
// on one seeded edge stream, the workload's own: rung after rung adds a
// layer, so the difference between two rungs is what that layer costs.
// Each rung runs on a fresh structure ladderReps times and reports the
// median; counts of reads, CASes and steals are exact for the run that
// produced them. Allocations and heap bytes come from runtime.MemStats
// around the timed call alone.
const (
	ladderEdges = 1 << 21 // unite edges per rung (pipe-ingest)
	ladderReps  = 5
	walBatch    = streamSeal // a /stream server batch: one WAL append
)

// ladderInput is the seeded stream every rung consumes.
type ladderInput struct {
	n     int
	kind  dsu.Kind   // the workload's tenant kind, for the point rung
	edges []dsu.Edge // unites
	pairs []dsu.Edge // SameSet queries
}

func newLadderInput(opt options) (ladderInput, error) {
	if opt.workload == "point-mix" {
		kind, err := dsu.ParseKind(pointKind)
		if err != nil {
			return ladderInput{}, err
		}
		in := ladderInput{n: pointN, kind: kind}
		for _, op := range workload.Mixed(pointN, pointOps, 0.2, opt.seed) {
			if op.Kind == workload.OpUnite {
				in.edges = append(in.edges, dsu.Edge{X: op.X, Y: op.Y})
			} else if len(in.pairs) < ladderEdges/2 {
				in.pairs = append(in.pairs, dsu.Edge{X: op.X, Y: op.Y})
			}
		}
		return in, nil
	}
	all := uniformEdges(wireN, ladderEdges+ladderEdges/2, opt.seed)
	return ladderInput{n: wireN, kind: dsu.KindFlat, edges: all[:ladderEdges], pairs: all[ladderEdges:]}, nil
}

// cost is one rung's medians per unit of work.
type cost struct{ ns, allocs, bytes float64 }

// timeRung runs ladderReps repetitions of prepare (untimed: it builds a
// fresh structure) and then the function prepare returned (timed),
// returning medians per unit.
func timeRung(units int, prepare func() (func(), error)) (cost, error) {
	var ns, allocs, bytes []float64
	var m0, m1 runtime.MemStats
	for i := 0; i < ladderReps; i++ {
		run, err := prepare()
		if err != nil {
			return cost{}, err
		}
		runtime.GC()
		runtime.ReadMemStats(&m0)
		t := time.Now()
		run()
		d := time.Since(t)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(d.Nanoseconds())/float64(units))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(units))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(units))
	}
	return cost{median(ns), median(allocs), median(bytes)}, nil
}

// setRung reports a rung's time under name and its allocations and heap
// bytes per edge under the layer.
func (r *report) setRung(layer, name string, c cost) {
	r.set(layer+"."+name, c.ns, "ns")
	r.set(layer+".allocs_per_edge", c.allocs, "count")
	r.set(layer+".heap_bytes_per_edge", c.bytes, "B")
}

// batches splits edges into consecutive batches of at most size.
func batches(edges []dsu.Edge, size int) [][]dsu.Edge {
	var out [][]dsu.Edge
	for lo := 0; lo < len(edges); lo += size {
		out = append(out, edges[lo:min(lo+size, len(edges))])
	}
	return out
}

// runLayers is a --trace 1 run: the ladder on the workload's input, then
// the traced passes over the wire.
func runLayers(opt options, rep *report) error {
	in, err := newLadderInput(opt)
	if err != nil {
		return err
	}
	fmt.Fprintf(rep.log, "ladder: n=%d, %d unite edges, %d queries, %d repetitions per rung\n", in.n, len(in.edges), len(in.pairs), ladderReps)
	for _, rung := range []func(options, *report, ladderInput) error{
		ladderCore, ladderEngine, ladderExec, ladderWAL, ladderDSU, ladderWire, ladderServer,
	} {
		if err := rung(opt, rep, in); err != nil {
			return err
		}
	}
	return runTraced(opt, rep)
}

// ladderCore is the bare core.DSU loop on one goroutine: exact counts.
func ladderCore(opt options, rep *report, in ladderInput) error {
	var d *core.DSU
	var ust, qst core.Stats
	unite, err := timeRung(len(in.edges), func() (func(), error) {
		d, ust = core.New(in.n, core.Config{Seed: opt.seed}), core.Stats{}
		return func() {
			for _, e := range in.edges {
				d.UniteCounted(e.X, e.Y, &ust)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	query, err := timeRung(len(in.pairs), func() (func(), error) {
		d = core.New(in.n, core.Config{Seed: opt.seed})
		for _, e := range in.edges {
			d.Unite(e.X, e.Y)
		}
		qst = core.Stats{}
		return func() {
			for _, p := range in.pairs {
				d.SameSetCounted(p.X, p.Y, &qst)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	ops := float64(len(in.edges) + len(in.pairs))
	rep.setRung("core", "unite_ns_per_edge", unite)
	rep.set("core.query_ns_per_op", query.ns, "ns")
	rep.set("core.reads_per_op", float64(ust.Reads+qst.Reads)/ops, "count")
	rep.set("core.cas_per_op", float64(ust.CASAttempts+qst.CASAttempts)/ops, "count")
	return nil
}

// ladderEngine is engine.Flat.UniteAll, the batch runner, in /pipe-sized
// batches.
func ladderEngine(opt options, rep *report, in ladderInput) error {
	bs := batches(in.edges, frameEdges)
	var steals int64
	c, err := timeRung(len(in.edges), func() (func(), error) {
		f := engine.Flat{D: core.New(in.n, core.Config{Seed: opt.seed})}
		steals = 0
		return func() {
			for _, b := range bs {
				steals += f.UniteAll(b, engine.Config{Seed: opt.seed}).Steals
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rep.setRung("engine", "unite_ns_per_edge", c)
	rep.set("engine.steals_per_batch", float64(steals)/float64(len(bs)), "count")
	return nil
}

// ladderExec is the exec.Executor seam over the same flat backend: bare,
// then with metrics instruments, then with a tracespan trace per batch.
// Its CAS retries come from the direct concurrent runner over the
// lock-free structure, the path point-mix's contention takes.
func ladderExec(opt options, rep *report, in ladderInput) error {
	bs := batches(in.edges, frameEdges)
	executor := func() *exec.Executor {
		return exec.NewExecutor(engine.Flat{D: core.New(in.n, core.Config{Seed: opt.seed})}, false)
	}
	bare, err := timeRung(len(in.edges), func() (func(), error) {
		x := executor()
		return func() {
			for _, b := range bs {
				x.UniteAll(b, exec.Config{Seed: opt.seed})
			}
		}, nil
	})
	if err != nil {
		return err
	}
	instrumented, err := timeRung(len(in.edges), func() (func(), error) {
		x := executor()
		x.Instrument(newInstruments())
		return func() {
			for _, b := range bs {
				x.UniteAll(b, exec.Config{Seed: opt.seed})
			}
		}, nil
	})
	if err != nil {
		return err
	}
	traced, err := timeRung(len(in.edges), func() (func(), error) {
		x := executor()
		rec := tracespan.New(tracespan.Config{Ring: len(bs)})
		return func() {
			for _, b := range bs {
				tr := rec.Start(tracespan.OpUnite, tracespan.SourceBlocking)
				x.UniteAll(b, exec.Config{Seed: opt.seed, Trace: tr})
				rec.Finish(tr)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	var retries int64
	direct, err := timeRung(len(in.edges), func() (func(), error) {
		l := lockfree.New(in.n, core.Config{Seed: opt.seed})
		retries = 0
		return func() {
			for _, b := range bs {
				retries += exec.UniteAllDirect(l, b, exec.Config{Seed: opt.seed}).CASRetries
			}
		}, nil
	})
	if err != nil {
		return err
	}
	rep.setRung("exec", "unite_ns_per_edge", bare)
	rep.set("exec.instrumented_ns_per_edge", instrumented.ns, "ns")
	rep.set("exec.traced_ns_per_edge", traced.ns, "ns")
	rep.set("exec.direct_ns_per_edge", direct.ns, "ns")
	rep.set("exec.cas_retries_per_op", float64(retries)/float64(len(in.edges)), "count")
	return nil
}

// newInstruments is a metrics bundle for a bare executor, as the dsu
// layer attaches to an instrumented tenant.
func newInstruments() *exec.Instruments {
	reg := metrics.NewRegistry()
	op := func(kind string) exec.OpInstruments {
		return exec.OpInstruments{
			Batches:   reg.Counter("bench_"+kind+"_batches_total", "batches"),
			Edges:     reg.Counter("bench_"+kind+"_edges_total", "edges"),
			FindSteps: reg.Counter("bench_"+kind+"_find_steps_total", "find steps"),
			Latency:   reg.Histogram("bench_"+kind+"_latency_seconds", "batch latency", metrics.DefBuckets()),
		}
	}
	return &exec.Instruments{
		Unite:           op("unite"),
		Query:           op("query"),
		Merged:          reg.Counter("bench_merged_total", "merges"),
		Filtered:        reg.Counter("bench_filtered_total", "filtered edges"),
		ScreenFindSteps: reg.Counter("bench_screen_find_steps_total", "screen find steps"),
		CASRetries:      reg.Counter("bench_cas_retries_total", "CAS retries"),
		Seq:             reg.Gauge("bench_seq", "applied sequence"),
	}
}

// ladderWAL appends /stream-batch-sized batches to a fresh log under the
// none and group sync policies; Close (sealing) is outside the timing.
func ladderWAL(opt options, rep *report, in ladderInput) error {
	dir, err := os.MkdirTemp(scratchDir, "ladder-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bs := batches(in.edges, walBatch)
	meta := wal.Meta{Tenant: tenant, N: in.n, Kind: uint8(dsu.KindFlat), Seed: opt.seed}
	appendRung := func(sync wal.SyncPolicy) (cost, error) {
		var w *wal.Writer
		var appendErr error
		c, err := timeRung(len(in.edges), func() (func(), error) {
			if w != nil {
				if err := w.Close(); err != nil {
					return nil, err
				}
			}
			path := filepath.Join(dir, "ladder-"+sync.String()+".dsulog")
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
			var err error
			if w, _, err = wal.Open(path, meta, wal.Options{Sync: sync}); err != nil {
				return nil, err
			}
			return func() {
				for _, b := range bs {
					if _, err := w.Append(b); err != nil && appendErr == nil {
						appendErr = err
					}
				}
			}, nil
		})
		if err == nil && w != nil {
			err = w.Close()
		}
		return c, errors.Join(err, appendErr)
	}
	none, err := appendRung(wal.SyncNone)
	if err != nil {
		return fmt.Errorf("wal ladder (sync none): %w", err)
	}
	group, err := appendRung(wal.SyncGroup)
	if err != nil {
		return fmt.Errorf("wal ladder (sync group): %w", err)
	}
	rep.setRung("wal", "append_none_ns_per_edge", none)
	rep.set("wal.append_group_ns_per_edge", group.ns, "ns")
	return nil
}

// ladderDSU prices the tenant surface: Universe.UniteAll in /pipe-sized
// batches, a dsu.Stream fed /stream-sized pushes, and point calls on a
// tenant of the workload's kind.
func ladderDSU(opt options, rep *report, in ladderInput) error {
	bs := batches(in.edges, frameEdges)
	var opErr error
	universe := func(kind dsu.Kind) (*dsu.Universe, error) {
		return dsu.NewRegistry().Create(tenant, in.n, dsu.WithKind(kind), dsu.WithSeed(opt.seed))
	}
	unite, err := timeRung(len(in.edges), func() (func(), error) {
		u, err := universe(dsu.KindFlat)
		return func() {
			for _, b := range bs {
				if _, err := u.UniteAll(dsu.UniteRequest{Edges: b}); err != nil && opErr == nil {
					opErr = err
				}
			}
		}, err
	})
	if err != nil {
		return err
	}
	stream, err := timeRung(len(in.edges), func() (func(), error) {
		u, err := universe(dsu.KindFlat)
		return func() {
			st := u.NewStream()
			for _, b := range bs {
				if err := st.Push(b...); err != nil && opErr == nil {
					opErr = err
				}
			}
			if err := st.Close(); err != nil && opErr == nil {
				opErr = err
			}
		}, err
	})
	if err != nil {
		return err
	}
	point, err := timeRung(len(in.edges)+len(in.pairs), func() (func(), error) {
		u, err := universe(in.kind)
		return func() {
			for _, e := range in.edges {
				u.Unite(e.X, e.Y)
			}
			for _, p := range in.pairs {
				u.SameSet(p.X, p.Y)
			}
		}, err
	})
	if err != nil {
		return err
	}
	if opErr != nil {
		return fmt.Errorf("dsu ladder: %w", opErr)
	}
	rep.setRung("dsu", "universe_unite_ns_per_edge", unite)
	rep.set("dsu.stream_ns_per_edge", stream.ns, "ns")
	rep.set("dsu.point_ns_per_op", point.ns, "ns")
	return nil
}

// ladderWire encodes the stream as /pipe frames through a pooled binary
// encoder, then decodes them back through a pooled decoder.
func ladderWire(opt options, rep *report, in ladderInput) error {
	bs := batches(in.edges, frameEdges)
	var buf bytes.Buffer
	var encErr error
	enc, err := timeRung(len(in.edges), func() (func(), error) {
		buf.Reset()
		buf.Grow(len(in.edges)*8 + len(bs)*64)
		e := wire.AcquireEncoder(&buf, wire.Binary)
		var req dsu.UniteRequest
		env := wire.Envelope{Kind: wire.KindUnite, Unite: &req}
		return func() {
			for i, b := range bs {
				env.Seq, req.Edges = uint64(i+1), b
				if err := e.Encode(&env); err != nil && encErr == nil {
					encErr = err
				}
			}
		}, nil
	})
	if err != nil {
		return err
	}
	if encErr != nil {
		return fmt.Errorf("wire ladder encode: %w", encErr)
	}
	data := buf.Bytes()
	var decoded int
	var decErr error
	dec, err := timeRung(len(in.edges), func() (func(), error) {
		d := wire.AcquireDecoder(bytes.NewReader(data), wire.Binary, wire.DefaultMaxFrame)
		decoded = 0
		return func() {
			for {
				env, err := d.Decode()
				if err != nil {
					if err != io.EOF {
						decErr = err
					}
					return
				}
				decoded += len(env.Unite.Edges)
			}
		}, nil
	})
	if err != nil {
		return err
	}
	if decErr != nil || decoded != len(in.edges) {
		return fmt.Errorf("wire ladder decode: %d of %d edges back, %v", decoded, len(in.edges), decErr)
	}
	perFrame := float64(len(in.edges)) / float64(len(bs))
	rep.set("wire.encode_ns_per_edge", enc.ns, "ns")
	rep.set("wire.decode_ns_per_edge", dec.ns, "ns")
	rep.set("wire.allocs_per_frame", (enc.allocs+dec.allocs)*perFrame, "count")
	rep.set("wire.allocs_per_edge", enc.allocs+dec.allocs, "count")
	rep.set("wire.heap_bytes_per_edge", enc.bytes+dec.bytes, "B")
	rep.set("wire.bytes_per_edge", float64(len(data))/float64(len(in.edges)), "B")
	return nil
}

// ladderServer drives the stream over loopback: /pipe as pipe-ingest
// does, and /stream without a log. Allocations are a full pass's minus an
// empty pass's, so set-up does not count.
func ladderServer(opt options, rep *report, in ladderInput) error {
	var pipeNs, streamNs, allocs, bytes []float64
	var lat []float64
	var m0, m1, m2 runtime.MemStats
	for i := 0; i < ladderReps; i++ {
		runtime.GC()
		runtime.ReadMemStats(&m0)
		if _, err := pipePass(rep, in.n, opt.seed, nil, false, oracle{}, clientHooks{}); err != nil {
			return err
		}
		runtime.ReadMemStats(&m1)
		p, err := pipePass(rep, in.n, opt.seed, in.edges, false, oracle{}, clientHooks{})
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&m2)
		pipeNs = append(pipeNs, float64(p.elapsed().Nanoseconds())/float64(len(in.edges)))
		lat = append(lat, p.latencies()...)
		allocs = append(allocs, float64((m2.Mallocs-m1.Mallocs)-(m1.Mallocs-m0.Mallocs))/float64(len(in.edges)))
		bytes = append(bytes, float64((m2.TotalAlloc-m1.TotalAlloc)-(m1.TotalAlloc-m0.TotalAlloc))/float64(len(in.edges)))

		runtime.GC()
		s, err := streamPass(rep, in.n, opt.seed, in.edges, false, oracle{}, "", clientHooks{})
		if err != nil {
			return err
		}
		streamNs = append(streamNs, float64(s.elapsed().Nanoseconds())/float64(len(in.edges)))
	}
	rep.set("server.pipe_ns_per_edge", median(pipeNs), "ns")
	rep.set("server.stream_ns_per_edge", median(streamNs), "ns")
	rep.set("server.allocs_per_edge", median(allocs), "count")
	rep.set("server.allocs_per_frame", median(allocs)*frameEdges, "count")
	rep.set("server.heap_bytes_per_edge", median(bytes), "B")
	// ladderReps passes of 200+ frames leave ten or more samples beyond the p99.
	rep.set("server.frame_p99_ms", quantile(lat, 0.99), "ms")
	return nil
}
