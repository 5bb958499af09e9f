package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/dsu"
	"repro/internal/randutil"
	"repro/internal/seqdsu"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Every tenant has n=2^17 elements, so its state (1 MB flat, 1.5 MB
// lock-free) stays in one core's 2 MB L2. The L3 and DRAM of a shared
// host belong to its other tenants as much as to this one: with n=2^20
// (8 MB) the unites of one /pipe pass took the server from 0.8 to 2.3 s
// to execute, by its own replies, from one pass to the next, and the
// same 16M edges through an in-process UniteAll loop from 0.75 to 2.1 s.
// At 2^17 the DSU work is priced by the program, not by the neighbours'
// cache traffic.
const (
	tenant     = "t"
	wireN      = 1 << 17 // elements of the tenant behind the wire
	frameEdges = 8192    // edges per /pipe frame and per /stream push
	pipeWindow = 4       // frames in flight on /pipe: bounded, so the run is steady
	// streamSeal is the server's default seal threshold; the client needs
	// it to know which push completes a server batch.
	streamSeal     = 65536
	streamInFlight = 2
	streamWindow   = 4       // server batches the producer may run ahead of their replies
	pointN         = 1 << 17 // elements of point-mix's tenant
	pointOps       = 32 * pointN
	pointWorkers   = 2
	pointFrame     = 8192 // point ops per latency sample on point-mix
	setupReps      = 15   // set-up-only passes, so setup_s has many samples
	passTimeout    = 150 * time.Second
)

// passResult is what one set-up-and-run of a workload measured. Instants
// are offsets from the moment the pass started setting up.
type passResult struct {
	setup time.Duration // building the system up to the first timed op
	done  []completion  // completions of frames or server batches, in time order
}

// completion is ops finishing at an instant: a frame's reply, a server
// batch's reply, or a point-mix worker ending a run of pointFrame ops.
// lat is that frame's or batch's latency.
type completion struct {
	at  time.Duration
	ops int
	lat time.Duration
}

// elapsed is the pass's timed region: first timed op to last completion.
func (p passResult) elapsed() time.Duration {
	if len(p.done) == 0 {
		return 0
	}
	return p.done[len(p.done)-1].at - p.setup
}

// latencies returns every frame latency of the pass, in ms.
func (p passResult) latencies() []float64 {
	out := make([]float64, len(p.done))
	for i, c := range p.done {
		out[i] = float64(c.lat) / float64(time.Millisecond)
	}
	return out
}

// passFunc sets a workload up, runs the given prefix of its input (all
// of it when full), checks the outcome against the oracle when full,
// and tears it down.
type passFunc func(size int, full bool) (passResult, error)

// windowOps is the work in one sample: 2^20 edges or ops.
const windowOps = 1 << 20

// bestWindows is how many of a run's best windows (highest rate, or
// lowest median latency) each timing is read from.
const bestWindows = 5

// measure drives a workload's passes: set-up-only passes for setup_s, a
// short warm-up so heap growth and lazy initialisation land outside the
// timed passes, then full passes until opt.seconds have elapsed.
//
// Each pass's completions are cut into windows of windowOps consecutive
// ops; a window gives one throughput sample and the median latency of
// the frames that completed in it. throughput_mops is the median of the
// run's bestWindows highest window rates, latency_p50_ms the median of
// its bestWindows lowest window medians, out of several hundred windows.
// setup_s is the median of every set-up.
//
// The timings are read at the fast end because the host's cores are
// shared with other tenants' virtual CPUs, and their load only ever
// slows this program down, by up to half for seconds or minutes at a
// time and with no steal time to show for it: back-to-back /pipe passes
// read 30 Mop/s, then 15 Mop/s for ten seconds, then 30 again, with the
// same work in each. Over five 30-second runs the spread between runs of
// the median window rate was 20% (pipe-ingest) and 10% (point-mix) of
// its value, and of the five best windows' rate 7% and 4%. A change that
// slows the program's own work moves the best windows as much as the
// median. A few windows rather than the single best, because one window
// can read fast by chance: a 2^20-op point-mix window lasts 17 ms.
// Set-up time is a median because its fast end spread more than its
// median did.
func measure(opt options, rep *report, total int, pass passFunc) error {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		p, err := pass(0, false)
		if err != nil {
			return fmt.Errorf("set-up pass: %w", err)
		}
		setups = append(setups, p.setup.Seconds())
	}
	runtime.GC()
	if _, err := pass(total/8, false); err != nil {
		return fmt.Errorf("warm-up pass: %w", err)
	}

	var ws []window
	start := time.Now()
	for passes := 1; passes == 1 || time.Since(start).Seconds() < opt.seconds; passes++ {
		runtime.GC()
		p, err := pass(total, true)
		if err != nil {
			return err
		}
		if len(p.done) == 0 {
			return fmt.Errorf("pass %d completed nothing", passes)
		}
		setups = append(setups, p.setup.Seconds())
		ws = append(ws, windows(p.setup, p.done)...)
		fmt.Fprintf(rep.log, "pass %d: setup %.2f ms, %.3f Mop/s overall, frame p50 %.3f ms\n",
			passes, p.setup.Seconds()*1e3, float64(total)/p.elapsed().Seconds()/1e6, median(p.latencies()))
	}
	if len(ws) == 0 {
		return fmt.Errorf("no pass completed a window of %d ops", windowOps)
	}
	rates, lats := make([]float64, len(ws)), make([]float64, len(ws))
	for i, w := range ws {
		rates[i], lats[i] = w.rate, w.p50
	}
	slices.Sort(rates)
	slices.Sort(lats)
	k := min(bestWindows, len(ws))
	rep.set("throughput_mops", median(rates[len(rates)-k:]), "Mop/s")
	rep.set("latency_p50_ms", median(lats[:k]), "ms")
	rep.set("setup_s", median(setups), "s")
	fmt.Fprintf(rep.log, "samples: %d windows of %d ops, %d set-ups\n", len(ws), windowOps, len(setups))
	return nil
}

// window is one sample of a pass: its rate in Mop/s and the median
// latency in ms of the frames completing in it.
type window struct{ rate, p50 float64 }

// windows splits completions into windows of at least windowOps ops; the
// first window starts at start, the first timed op. A trailing partial
// window is dropped.
func windows(start time.Duration, done []completion) []window {
	var out []window
	var lat []float64
	ops := 0
	for _, c := range done {
		ops += c.ops
		lat = append(lat, float64(c.lat)/float64(time.Millisecond))
		if ops >= windowOps {
			out = append(out, window{float64(ops) / (c.at - start).Seconds() / 1e6, median(lat)})
			start, ops, lat = c.at, 0, lat[:0]
		}
	}
	return out
}

// uniformEdges returns m uniform random edges over n elements, the same
// draws workload.RandomUnions makes, without its per-op kind byte.
func uniformEdges(n, m int, seed uint64) []dsu.Edge {
	rng := randutil.NewXoshiro256(seed)
	edges := make([]dsu.Edge, m)
	for i := range edges {
		edges[i] = dsu.Edge{X: uint32(rng.Intn(n)), Y: uint32(rng.Intn(n))}
	}
	return edges
}

// oracle is the sequential reference partition of a unite sequence.
type oracle struct {
	labels []uint32 // canonical (minimum-element) labels
	merges int64    // n − sets: the merge count every correct run reports
}

// oraclesAt returns the sequential partitions of the prefixes of edges
// of the given ascending sizes, from one pass over internal/seqdsu.
func oraclesAt(n int, edges []dsu.Edge, sizes ...int) []oracle {
	d := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 0)
	out := make([]oracle, 0, len(sizes))
	done := 0
	for _, size := range sizes {
		for _, e := range edges[done:size] {
			d.Unite(e.X, e.Y)
		}
		done = size
		out = append(out, oracle{labels: d.CanonicalLabels(), merges: int64(n - d.Sets())})
	}
	return out
}

// check compares a run's final labels and summed merges with the oracle,
// recording a failure for each disagreement.
func (o oracle) check(rep *report, what string, labels []uint32, merges int64) {
	if !slices.Equal(labels, o.labels) {
		rep.fail("%s: final labels differ from the sequential oracle", what)
	}
	if merges != o.merges {
		rep.fail("%s: summed merges %d, want n − sets = %d", what, merges, o.merges)
	}
}

// remote is one loopback server over a fresh registry with one tenant.
type remote struct {
	reg *dsu.Registry
	hs  *httptest.Server
	c   *server.Client
}

func startRemote(n int, seed uint64, regOpts ...dsu.RegistryOption) (*remote, error) {
	reg := dsu.NewRegistry(regOpts...)
	if _, err := reg.Create(tenant, n, dsu.WithSeed(seed)); err != nil {
		return nil, fmt.Errorf("create tenant: %w", err)
	}
	hs := httptest.NewServer(server.New(server.Config{Registry: reg, Metrics: reg.Metrics()}))
	return &remote{reg: reg, hs: hs, c: server.NewClient(hs.URL, server.WithHTTPClient(hs.Client()))}, nil
}

// close stops the server and seals the registry's logs. Idempotent.
func (r *remote) close() error {
	r.hs.Close()
	return r.reg.Close()
}

// checkLabels fetches the tenant's labels over the wire and checks them.
func (r *remote) checkLabels(ctx context.Context, rep *report, what string, or oracle, merged int64) error {
	labels, err := r.c.Labels(ctx, tenant)
	if err != nil {
		return fmt.Errorf("%s: fetch labels: %w", what, err)
	}
	or.check(rep, what, labels, merged)
	return nil
}

// clientHooks let the traced run tag frames with trace contexts and
// record its own spans around the client's calls. The untraced run
// passes the zero value.
type clientHooks struct {
	regOpts []dsu.RegistryOption
	link    func(i int) dsu.TraceContext               // context for frame or push i
	sent    func(i int, start, end time.Duration)      // frame or push i left the client
	reply   func(env *wire.Envelope, at time.Duration) // a reply envelope arrived
	done    func(r *remote, base time.Time) error      // after the timed region, before teardown; base is time 0 of the pass
}

func (h clientHooks) linkFor(i int) dsu.TraceContext {
	if h.link == nil {
		return dsu.TraceContext{}
	}
	return h.link(i)
}

func runPipeIngest(opt options, rep *report) error {
	edges := uniformEdges(wireN, 16*wireN, opt.seed)
	or := oraclesAt(wireN, edges, len(edges))[0]
	return measure(opt, rep, len(edges), func(size int, full bool) (passResult, error) {
		return pipePass(rep, wireN, opt.seed, edges[:size], full, or, clientHooks{})
	})
}

// pipePass is one pipe-ingest pass: set up, send every frame in a closed
// loop with at most pipeWindow in flight, wait for the last reply, check.
func pipePass(rep *report, n int, seed uint64, edges []dsu.Edge, full bool, or oracle, h clientHooks) (passResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	frames := (len(edges) + frameEdges - 1) / frameEdges
	sentAt := make([]atomic.Int64, frames) // ns since base; written by the producer, read by the reply reader
	done := make([]completion, 0, frames)
	slots := make(chan struct{}, pipeWindow)
	var merged, replies, errs int64 // owned by the reply reader until Close returns

	// Every instant is an offset from base, which is set before the reply
	// reader starts, so both goroutines read it without synchronising.
	base := time.Now()
	r, err := startRemote(n, seed, h.regOpts...)
	if err != nil {
		return passResult{}, err
	}
	defer r.close()
	cp, err := r.c.OpenPipe(ctx, tenant, server.PipeConfig{OnReply: func(env *wire.Envelope) {
		at := time.Since(base)
		if h.reply != nil {
			h.reply(env, at)
		}
		if i := int(env.Seq) - 1; env.Kind == wire.KindReply && i >= 0 && i < frames {
			replies++
			merged += env.Reply.Merged
			done = append(done, completion{at, frameEdges, at - time.Duration(sentAt[i].Load())})
		} else {
			errs++
		}
		<-slots
	}})
	if err != nil {
		return passResult{}, fmt.Errorf("open pipe: %w", err)
	}
	setup := time.Since(base)

	for i := 0; i < frames; i++ {
		select {
		case slots <- struct{}{}:
		case <-ctx.Done():
			cp.Close()
			return passResult{}, fmt.Errorf("pipe stalled after %d frames: %w", i, ctx.Err())
		}
		at := time.Since(base)
		sentAt[i].Store(int64(at))
		req := dsu.UniteRequest{Edges: edges[i*frameEdges : min((i+1)*frameEdges, len(edges))]}
		if _, err := cp.UniteAllLinked(req, h.linkFor(i)); err != nil {
			rep.fail("pipe send of frame %d: %v", i+1, err)
			break
		}
		if h.sent != nil {
			h.sent(i, at, time.Since(base))
		}
	}
	if err := cp.Close(); err != nil {
		rep.fail("pipe close: %v", err)
	}

	if full {
		rep.Attempted += int64(frames)
		rep.Failed += int64(frames) - replies // error envelopes and frames never answered
		if replies != int64(frames) {
			rep.Correct = false
			fmt.Fprintf(rep.log, "FAIL: %d of %d frames answered, %d error envelopes\n", replies, frames, errs)
		}
		if err := r.checkLabels(ctx, rep, "pipe-ingest", or, merged); err != nil {
			return passResult{}, err
		}
	}
	if h.done != nil {
		if err := h.done(r, base); err != nil {
			return passResult{}, err
		}
	}
	return passResult{setup: setup, done: done}, nil
}

// streamPass is one /stream pass: set up a tenant behind a loopback
// server (durable with its log in dir, unless dir is empty), push every
// edge, close, check. The registry is closed, and so the log sealed,
// when it returns.
func streamPass(rep *report, n int, seed uint64, edges []dsu.Edge, full bool, or oracle, dir string, h clientHooks) (passResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), passTimeout)
	defer cancel()
	batches := (len(edges) + streamSeal - 1) / streamSeal
	pushAt := make([]atomic.Int64, batches) // ns since base of the push completing each batch
	done := make([]completion, 0, batches)
	slots := make(chan struct{}, streamWindow)
	var merged, okEdges int64 // owned by the reply reader until Close returns

	regOpts := h.regOpts
	if dir != "" {
		regOpts = append([]dsu.RegistryOption{dsu.WithDurability(dir)}, regOpts...)
	}
	base := time.Now() // as in pipePass
	r, err := startRemote(n, seed, regOpts...)
	if err != nil {
		return passResult{}, err
	}
	defer r.close()
	cs, err := r.c.OpenStream(ctx, tenant, server.StreamConfig{InFlight: streamInFlight, OnReply: func(env *wire.Envelope) {
		at := time.Since(base)
		b := int(env.Seq) - 1
		if b < 0 || b >= batches {
			return // a connection-level error; Close reports it
		}
		if h.reply != nil {
			h.reply(env, at)
		}
		if env.Kind == wire.KindReply {
			size := min(streamSeal, len(edges)-b*streamSeal)
			merged += env.Reply.Merged
			okEdges += int64(size)
			done = append(done, completion{at, size, at - time.Duration(pushAt[b].Load())})
		}
		<-slots
	}})
	if err != nil {
		return passResult{}, fmt.Errorf("open stream: %w", err)
	}
	setup := time.Since(base)

	for i, lo := 0, 0; lo < len(edges); i, lo = i+1, lo+frameEdges {
		hi := min(lo+frameEdges, len(edges))
		if lo%streamSeal == 0 {
			select {
			case slots <- struct{}{}:
			case <-ctx.Done():
				cs.Close()
				return passResult{}, fmt.Errorf("stream stalled after %d edges: %w", lo, ctx.Err())
			}
		}
		at := time.Since(base)
		if hi%streamSeal == 0 || hi == len(edges) {
			pushAt[(hi-1)/streamSeal].Store(int64(at))
		}
		if err := cs.PushLinked(h.linkFor(i), edges[lo:hi]...); err != nil {
			rep.fail("stream push at edge %d: %v", lo, err)
			break
		}
		if h.sent != nil {
			h.sent(i, at, time.Since(base))
		}
	}
	end, closeErr := cs.Close()
	if closeErr != nil {
		rep.fail("stream close: %v", closeErr)
	}

	if full {
		rep.Attempted += int64(len(edges))
		rep.Failed += int64(len(edges)) - okEdges // edges the stream lost or failed
		if end == nil || end.Failed > 0 || end.Edges != int64(len(edges)) {
			rep.Correct = false
			fmt.Fprintf(rep.log, "FAIL: stream end %+v after %d edges pushed\n", end, len(edges))
		}
		if err := r.checkLabels(ctx, rep, "stream", or, merged); err != nil {
			return passResult{}, err
		}
	}
	if h.done != nil {
		if err := h.done(r, base); err != nil {
			return passResult{}, err
		}
	}
	if err := r.close(); err != nil {
		return passResult{}, fmt.Errorf("seal log: %w", err)
	}
	return passResult{setup: setup, done: done}, nil
}

// mixedInput is point-mix's op stream split for the workers, with the
// unite subsequence for the oracle.
type mixedInput struct {
	parts  [][]workload.Op
	unites []dsu.Edge
}

func newMixedInput(m int, seed uint64) mixedInput {
	ops := workload.Mixed(pointN, m, 0.2, seed)
	in := mixedInput{parts: workload.SplitBlocks(ops, pointWorkers)}
	for _, op := range ops {
		if op.Kind == workload.OpUnite {
			in.unites = append(in.unites, dsu.Edge{X: op.X, Y: op.Y})
		}
	}
	return in
}

// pointKind names point-mix's structure kind through the parse alias
// the tenant surface keeps, so the workload outlives the kind's
// implementation moving.
const pointKind = "lockfree"

func runPointMix(opt options, rep *report) error {
	kind, err := dsu.ParseKind(pointKind)
	if err != nil {
		return err
	}
	in := newMixedInput(pointOps, opt.seed)
	or := oraclesAt(pointN, in.unites, len(in.unites))[0]
	return measure(opt, rep, pointOps, func(size int, full bool) (passResult, error) {
		return pointPass(rep, kind, in, opt.seed, size, full, or)
	})
}

// pointPass is one point-mix pass: a fresh tenant of the given kind, then
// pointWorkers goroutines each issuing its share of the first size ops
// as unsynchronized point calls.
func pointPass(rep *report, kind dsu.Kind, in mixedInput, seed uint64, size int, full bool, or oracle) (passResult, error) {
	base := time.Now()
	reg := dsu.NewRegistry()
	u, err := reg.Create(tenant, pointN, dsu.WithKind(kind), dsu.WithSeed(seed))
	if err != nil {
		return passResult{}, fmt.Errorf("create tenant: %w", err)
	}
	setup := time.Since(base)

	type part struct {
		ops     []workload.Op
		answers []bool // SameSet answers, indexed like ops
		merged  int64
		done    []completion
	}
	parts := make([]part, len(in.parts))
	for i, ops := range in.parts {
		ops = ops[:min(len(ops), size/len(in.parts))]
		parts[i] = part{ops: ops, answers: make([]bool, len(ops))}
	}
	var wg sync.WaitGroup
	for i := range parts {
		p := &parts[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lo := 0; lo < len(p.ops); lo += pointFrame {
				ft := time.Since(base)
				frame := p.ops[lo:min(lo+pointFrame, len(p.ops))]
				for j, op := range frame {
					if op.Kind == workload.OpUnite {
						if u.Unite(op.X, op.Y) {
							p.merged++
						}
					} else {
						p.answers[lo+j] = u.SameSet(op.X, op.Y)
					}
				}
				at := time.Since(base)
				p.done = append(p.done, completion{at, len(frame), at - ft})
			}
		}()
	}
	wg.Wait()

	// The timed region ends when the first worker runs out of ops: after
	// that the other runs alone, outside the concurrent regime this
	// workload is for, and faster for it.
	res := passResult{setup: setup}
	ops := 0
	end := time.Duration(math.MaxInt64)
	for i := range parts {
		ops += len(parts[i].ops)
		res.done = append(res.done, parts[i].done...)
		if d := parts[i].done; len(d) > 0 {
			end = min(end, d[len(d)-1].at)
		}
	}
	slices.SortFunc(res.done, func(a, b completion) int { return cmp.Compare(a.at, b.at) })
	res.done = slices.DeleteFunc(res.done, func(c completion) bool { return c.at > end })
	if full {
		labels := u.CanonicalLabels()
		var merged, wrong int64
		for i := range parts {
			p := &parts[i]
			merged += p.merged
			for j, op := range p.ops {
				// A true answer is definite; a false one may have been
				// overtaken by a later unite, so only true answers are
				// checked against the final partition.
				if op.Kind == workload.OpSameSet && p.answers[j] && labels[op.X] != labels[op.Y] {
					wrong++
				}
			}
		}
		rep.Attempted += int64(ops)
		if wrong > 0 {
			rep.Correct = false
			rep.Failed += wrong
			fmt.Fprintf(rep.log, "FAIL: %d true SameSet answers not connected in the final partition\n", wrong)
		}
		or.check(rep, "point-mix", labels, merged)
	}
	return res, nil
}
