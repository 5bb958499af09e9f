package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/dsu"
	"repro/internal/tracespan"
	"repro/internal/wal"
	"repro/internal/wire"
)

// The traced runs break the wire paths' frame latency into the
// program's span stages. The server side records its own spans
// (dsu.WithTracing, ring sized so no frame is dropped, with
// dsu.WithMetrics on); the benchmark records spans around its client
// calls and tags each frame with a trace context the server adopts, so
// every client frame is matched with its server trace. A stage's self
// time is its span's duration minus the part its nested stage spans
// cover; "server_other" is the server trace's time outside every stage,
// and "client" is the client-observed frame time outside the server
// trace (client encode and decode, loopback transit, waiting to be read).
// Per frame, the parts add up to the client-observed frame time.

// clientSpan is a span the benchmark records around its own calls.
type clientSpan struct {
	Trace string        `json:"trace_id"`
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// traceDump is everything the traced runs recorded, written out at the
// end of the run.
type traceDump struct {
	Workload string                      `json:"workload"`
	Seed     uint64                      `json:"seed"`
	Client   map[string][]clientSpan     `json:"client_spans"`
	Server   map[string][]dsu.BatchTrace `json:"server_traces"`
}

// tracedFrames collects one traced pass: client spans and frame
// intervals by frame index, and the server traces matched to them.
type tracedFrames struct {
	transport string
	base      time.Time
	spans     []clientSpan
	start     []time.Duration // first client op of frame i
	end       []time.Duration // reply to frame i received
	traces    []dsu.BatchTrace
}

func newTracedFrames(transport string, frames int) *tracedFrames {
	return &tracedFrames{transport: transport, start: make([]time.Duration, frames), end: make([]time.Duration, frames)}
}

// traceID is frame i's trace identity: nonzero, and distinct per
// transport so the dump's traces never collide.
func (t *tracedFrames) traceID(i int) uint64 {
	return uint64(len(t.transport))<<48 | uint64(i+1)
}

func (t *tracedFrames) link(i int) dsu.TraceContext {
	return dsu.TraceContext{Trace: t.traceID(i), Span: 1}
}

// collect reads the tenant's finished traces after the timed region.
func (t *tracedFrames) collect(r *remote, base time.Time) error {
	u, ok := r.reg.Get(tenant)
	if !ok {
		return fmt.Errorf("traced %s: tenant missing", t.transport)
	}
	t.base, t.traces = base, u.Traces()
	return nil
}

// stageNames are the span stages the program records, in pipeline order.
var stageNames = []string{
	tracespan.StageWireDecode, tracespan.StageQueueWait, tracespan.StageSeal,
	tracespan.StageDispatch, tracespan.StageExecute, tracespan.StageReplyEncode,
}

type interval struct{ lo, hi time.Duration }

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs []interval, lo, hi time.Duration) time.Duration {
	var clipped []interval
	for _, iv := range ivs {
		if a, b := max(iv.lo, lo), min(iv.hi, hi); a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end time.Duration
	end = lo
	for _, iv := range clipped {
		if iv.hi <= end {
			continue
		}
		total += iv.hi - max(iv.lo, end)
		end = iv.hi
	}
	return total
}

// breakdown reports the mean self time per frame of every stage the
// transport records (want), plus server_other, client and the measured
// frame time, under trace.<transport>.*. Missing traces fail the run.
func (t *tracedFrames) breakdown(rep *report, want []string) error {
	byID := make(map[string]dsu.BatchTrace, len(t.traces))
	for _, tr := range t.traces {
		byID[tr.TraceID] = tr
	}
	self := map[string]time.Duration{}
	var frameTotal time.Duration
	for i := range t.start {
		tr, ok := byID[tracespan.FormatTraceID(t.traceID(i))]
		if !ok {
			return fmt.Errorf("traced %s: no server trace for frame %d of %d (%d traces kept)", t.transport, i+1, len(t.start), len(t.traces))
		}
		var stages []interval
		var names []string
		for _, s := range tr.Spans {
			if slices.Contains(stageNames, s.Name) {
				stages = append(stages, interval{s.Start, s.Start + s.Duration})
				names = append(names, s.Name)
			}
		}
		for k, iv := range stages {
			var nested []interval
			for j, other := range stages {
				if j != k && other.lo >= iv.lo && other.hi <= iv.hi && (other != iv || j > k) {
					nested = append(nested, other)
				}
			}
			self[names[k]] += iv.hi - iv.lo - covered(nested, iv.lo, iv.hi)
		}
		self["server_other"] += tr.Duration - covered(stages, 0, tr.Duration)
		frame := t.end[i] - t.start[i]
		self["client"] += frame - tr.Duration
		frameTotal += frame

		id := tracespan.FormatTraceID(t.traceID(i))
		t.spans = append(t.spans, clientSpan{id, t.transport + ".frame", t.start[i], t.end[i]})
		srvStart := tr.Began.Sub(t.base)
		t.spans = append(t.spans, clientSpan{id, t.transport + ".server", srvStart, srvStart + tr.Duration})
	}
	frames := float64(len(t.start))
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / frames }
	prefix := "trace." + t.transport + "."
	var sum time.Duration
	for _, name := range append(want, "server_other", "client") {
		sum += self[name]
		rep.set(prefix+strings.ReplaceAll(name, "-", "_")+"_us", us(self[name]), "us")
	}
	rep.set(prefix+"frame_us", us(frameTotal), "us")
	for name, d := range self {
		if d != 0 && !slices.Contains(want, name) && name != "server_other" && name != "client" {
			return fmt.Errorf("traced %s: unexpected stage %q", t.transport, name)
		}
	}
	fmt.Fprintf(rep.log, "traced %s: %d frames, mean frame %.1f us, stage self times sum to %.1f us\n",
		t.transport, len(t.start), us(frameTotal), us(sum))
	return nil
}

// tracingOpts is the traced tenant's registry configuration.
func tracingOpts(frames int) []dsu.RegistryOption {
	return []dsu.RegistryOption{
		dsu.WithTracing(dsu.NewTracing(dsu.WithTraceRing(frames + 64))),
		dsu.WithMetrics(dsu.NewMetrics()),
	}
}

// runTraced runs the traced passes on wireProcs processors: /pipe and
// /stream (durable) each untraced then traced, for
// trace.<transport>.overhead_frac, and the /pipe edges again as
// single-shot RPCs, the only path that records a wire-decode span. The
// sealed stream log is then inspected and recovered for the wal metrics.
func runTraced(opt options, rep *report) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(wireProcs))
	edges := uniformEdges(wireN, 16*wireN, opt.seed)
	streamEdges := edges[:8*wireN]
	ors := oraclesAt(wireN, edges, len(streamEdges), len(edges))
	dump := traceDump{Workload: opt.workload, Seed: opt.seed, Client: map[string][]clientSpan{}, Server: map[string][]dsu.BatchTrace{}}

	// /pipe.
	runtime.GC()
	plain, err := pipePass(rep, wireN, opt.seed, edges, true, ors[1], clientHooks{})
	if err != nil {
		return err
	}
	pipe := newTracedFrames("pipe", len(edges)/frameEdges)
	runtime.GC()
	traced, err := pipePass(rep, wireN, opt.seed, edges, true, ors[1], clientHooks{
		regOpts: tracingOpts(len(pipe.start)),
		link:    pipe.link,
		sent: func(i int, start, end time.Duration) {
			pipe.start[i] = start
			pipe.spans = append(pipe.spans, clientSpan{tracespan.FormatTraceID(pipe.traceID(i)), "pipe.send", start, end})
		},
		reply: func(env *wire.Envelope, at time.Duration) {
			if i := int(env.Seq) - 1; i >= 0 && i < len(pipe.end) {
				pipe.end[i] = at
			}
		},
		done: pipe.collect,
	})
	if err != nil {
		return err
	}
	if err := pipe.breakdown(rep, []string{tracespan.StageQueueWait, tracespan.StageExecute, tracespan.StageReplyEncode}); err != nil {
		return err
	}
	rep.set("trace.pipe.overhead_frac", overhead(plain, traced), "ratio")
	dump.Client["pipe"], dump.Server["pipe"] = pipe.spans, pipe.traces

	// Single-shot RPCs.
	runtime.GC()
	rpc := newTracedFrames("rpc", len(edges)/frameEdges)
	if err := rpcPass(rep, opt.seed, edges, ors[1], rpc); err != nil {
		return err
	}
	if err := rpc.breakdown(rep, []string{tracespan.StageWireDecode, tracespan.StageQueueWait, tracespan.StageExecute, tracespan.StageReplyEncode}); err != nil {
		return err
	}
	dump.Client["rpc"], dump.Server["rpc"] = rpc.spans, rpc.traces

	// /stream into a durable tenant; a frame is one server batch, from
	// its first push to its reply.
	dir, err := os.MkdirTemp(scratchDir, "traced-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	plainDir := filepath.Join(dir, "plain")
	tracedDir := filepath.Join(dir, "traced")
	for _, d := range []string{plainDir, tracedDir} {
		if err := os.Mkdir(d, 0o755); err != nil {
			return err
		}
	}
	runtime.GC()
	plain, err = streamPass(rep, wireN, opt.seed, streamEdges, true, ors[0], plainDir, clientHooks{})
	if err != nil {
		return err
	}
	perBatch := streamSeal / frameEdges
	stream := newTracedFrames("stream", len(streamEdges)/streamSeal)
	runtime.GC()
	traced, err = streamPass(rep, wireN, opt.seed, streamEdges, true, ors[0], tracedDir, clientHooks{
		regOpts: tracingOpts(len(stream.start)),
		link:    func(i int) dsu.TraceContext { return stream.link(i / perBatch) },
		sent: func(i int, start, end time.Duration) {
			if i%perBatch == 0 {
				stream.start[i/perBatch] = start
			}
			stream.spans = append(stream.spans, clientSpan{tracespan.FormatTraceID(stream.traceID(i / perBatch)), "stream.push", start, end})
		},
		reply: func(env *wire.Envelope, at time.Duration) {
			if b := int(env.Seq) - 1; b >= 0 && b < len(stream.end) {
				stream.end[b] = at
			}
		},
		done: stream.collect,
	})
	if err != nil {
		return err
	}
	if err := stream.breakdown(rep, []string{tracespan.StageSeal, tracespan.StageQueueWait, tracespan.StageDispatch, tracespan.StageExecute, tracespan.StageReplyEncode}); err != nil {
		return err
	}
	rep.set("trace.stream.overhead_frac", overhead(plain, traced), "ratio")
	dump.Client["stream"], dump.Server["stream"] = stream.spans, stream.traces
	if err := inspectLog(rep, plainDir, len(streamEdges), ors[0]); err != nil {
		return err
	}

	path := filepath.Join(scratchDir, fmt.Sprintf("trace-%s-seed%d.json", opt.workload, opt.seed))
	b, err := json.Marshal(dump)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(rep.log, "spans written to %s\n", path)
	return nil
}

// overhead is the share of untraced throughput the traced pass lost.
func overhead(plain, traced passResult) float64 {
	rate := func(p passResult) float64 {
		var rates []float64
		for _, w := range windows(p.setup, p.done) {
			rates = append(rates, w.rate)
		}
		return median(rates)
	}
	return 1 - rate(traced)/rate(plain)
}

// inspectLog reads the sealed durable /stream log through its public
// reader, then recovers it through the dsu registry three times.
func inspectLog(rep *report, dir string, edges int, or oracle) error {
	paths, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(paths) != 1 {
		return fmt.Errorf("sealed log: want one file in %s, found %v (%v)", dir, paths, err)
	}
	r, err := wal.OpenReader(paths[0])
	if err != nil {
		return fmt.Errorf("sealed log: %w", err)
	}
	var batches uint64
	var logged int
	for _, c := range r.Chunks() {
		batches += c.LastSeq - c.FirstSeq + 1
		logged += c.Edges
	}
	fi, err := os.Stat(paths[0])
	if err != nil {
		return err
	}
	if logged != edges || len(r.Chunks()) == 0 {
		rep.fail("sealed log holds %d edges in %d chunks, want %d edges", logged, len(r.Chunks()), edges)
		return nil
	}
	// Under group commit every chunk is one write and one fsync.
	rep.set("wal.batches_per_fsync", float64(batches)/float64(len(r.Chunks())), "count")
	rep.set("wal.bytes_per_edge", float64(fi.Size())/float64(edges), "B")

	var ms []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		reg := dsu.NewRegistry(dsu.WithDurability(dir))
		if _, err := reg.RestoreTenants(); err != nil {
			return fmt.Errorf("recover log: %w", err)
		}
		ms = append(ms, float64(time.Since(t).Nanoseconds())/1e6)
		u, ok := reg.Get(tenant)
		if !ok {
			return fmt.Errorf("recover log: tenant %q not restored", tenant)
		}
		or.check(rep, "recovered log", u.CanonicalLabels(), int64(u.N()-u.Sets()))
		if err := reg.Close(); err != nil {
			return fmt.Errorf("reseal log: %w", err)
		}
	}
	rep.set("wal.recover_ms", median(ms), "ms")
	return nil
}

// rpcPass sends edges as sequential single-shot unite RPCs to a traced
// tenant and checks the outcome.
func rpcPass(rep *report, seed uint64, edges []dsu.Edge, or oracle, t *tracedFrames) error {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	base := time.Now()
	r, err := startRemote(wireN, seed, tracingOpts(len(t.start))...)
	if err != nil {
		return err
	}
	defer r.close()
	var merged int64
	for i := range t.start {
		req := dsu.UniteRequest{Edges: edges[i*frameEdges : (i+1)*frameEdges]}
		t.start[i] = time.Since(base)
		rep.Attempted++
		rp, _, err := r.c.UniteAllLinked(ctx, tenant, req, t.link(i))
		t.end[i] = time.Since(base)
		if err != nil {
			rep.fail("rpc frame %d: %v", i+1, err)
			continue
		}
		merged += rp.Merged
		t.spans = append(t.spans, clientSpan{tracespan.FormatTraceID(t.traceID(i)), "rpc.call", t.start[i], t.end[i]})
	}
	if err := r.checkLabels(ctx, rep, "rpc", or, merged); err != nil {
		return err
	}
	return t.collect(r, base)
}
