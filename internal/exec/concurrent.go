package exec

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/randutil"
)

// ConcurrentOps is the second capability of the execution seam: the
// direct point-operation surface of a backend whose mutations are safe
// from any number of goroutines with no quiescence requirement — core.DSU,
// which engine.Direct drives for the lock-free kind. Where the engine's
// pool drives an opaque Target through span claims and work stealing —
// machinery that earns its keep when one batch at a time owns the
// structure — a ConcurrentOps backend needs none of it: the direct
// runners below split the batch into static contiguous chunks and have
// workers apply edges straight through the point operations. Nothing serializes against other batches, point
// callers, or streams on the same structure; overlap is the contract,
// not a hazard.
type ConcurrentOps interface {
	// UniteDirect merges the sets containing x and y, reporting whether
	// this call performed the merge and how many times its root-link CAS
	// lost a race and retried — the contention metric Result.CASRetries
	// aggregates.
	UniteDirect(x, y uint32, st *core.Stats) (merged bool, retries int64)
	// SameSetDirect reports whether x and y are in the same set
	// (linearizable).
	SameSetDirect(x, y uint32, st *core.Stats) bool
}

// UniteAllDirect applies every edge of the batch through t's direct point
// operations: static contiguous chunks, one worker each, no claim
// protocol and no barrier against anything else running on the structure.
// The call returns when its own edges are applied (it must, to report
// Merged), but unlike the engine path that is a property of this call
// only — any number of UniteAllDirect calls may overlap on one structure,
// and the summed Merged across them is exact (each successful link counts
// exactly once, and the link count needed to reach a partition is
// schedule-independent). Filter passes are the caller's job: the runner
// sees the batch as given.
func UniteAllDirect(t ConcurrentOps, edges []Edge, cfg Config) Result {
	return runDirect(t, edges, cfg, nil)
}

// SameSetAllDirect answers pairs[i] into element i of the returned slice
// through t's direct point operations, with the same no-barrier contract
// as UniteAllDirect. Each answer is linearizable; at quiescence the whole
// slice is exact.
func SameSetAllDirect(t ConcurrentOps, pairs []Edge, cfg Config) ([]bool, Result) {
	out := make([]bool, len(pairs))
	res := runDirect(t, pairs, cfg, out)
	return out, res
}

// ScreenConnectedDirect drops edges whose endpoints are already
// connected, answering through the direct query loop and compacting the
// survivors. Sound under full concurrency — a true SameSet answer is
// definite — like the engine's screen.
func ScreenConnectedDirect(t ConcurrentOps, edges []Edge, cfg Config) ([]Edge, Result) {
	scfg := cfg
	scfg.Prefilter, scfg.ConnectedFilter = false, false
	connected, sres := SameSetAllDirect(t, edges, scfg)
	kept := make([]Edge, 0, len(edges))
	for i, e := range edges {
		if !connected[i] {
			kept = append(kept, e)
		}
	}
	return kept, sres
}

// runDirect is the shared direct loop: Unite mode when out is nil,
// SameSet mode otherwise. Workers take contiguous chunks fixed up front —
// point operations on a lock-free structure are uniform enough that the
// engine's guided self-scheduling would only add claim traffic. Each
// keeps its Stats and tallies in goroutine-local variables and stores
// them once at the end: adjacent slots of a shared slice sit on one
// cache line, and writing them per edge would make the workers'
// tallies false-share it.
func runDirect(t ConcurrentOps, edges []Edge, cfg Config, out []bool) Result {
	p := cfg.Workers
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > len(edges) {
		p = len(edges)
	}
	res := Result{Workers: p}
	if len(edges) == 0 {
		return res
	}
	res.PerWorker = make([]core.Stats, p)
	merged := make([]int64, p)
	retries := make([]int64, p)
	chunk := (len(edges) + p - 1) / p
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p; w++ {
		lo := min(w*chunk, len(edges))
		hi := min(lo+chunk, len(edges))
		wg.Add(1)
		go func(w int, part []Edge, out []bool) {
			defer wg.Done()
			var st core.Stats
			var m, r int64
			if out == nil {
				for _, e := range part {
					if e.X == e.Y {
						// A self-loop can never merge; it still counts as a
						// completed operation, as on the engine path.
						st.Ops++
						continue
					}
					ok, rr := t.UniteDirect(e.X, e.Y, &st)
					if ok {
						m++
					}
					r += rr
				}
			} else {
				for i, e := range part {
					if e.X == e.Y {
						out[i] = true
						st.Ops++
						continue
					}
					out[i] = t.SameSetDirect(e.X, e.Y, &st)
				}
			}
			res.PerWorker[w], merged[w], retries[w] = st, m, r
		}(w, edges[lo:hi], sliceOrNil(out, lo, hi))
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	for w := 0; w < p; w++ {
		res.Merged += merged[w]
		res.CASRetries += retries[w]
	}
	return res
}

// sliceOrNil subslices out to [lo, hi) when present, preserving the
// nil-means-Unite-mode convention.
func sliceOrNil(out []bool, lo, hi int) []bool {
	if out == nil {
		return nil
	}
	return out[lo:hi]
}

// Dedup returns the batch with self-loop edges and exact duplicates
// removed; (u, v) and (v, u) name the same edge and count as duplicates.
// The first occurrence of each edge survives in order; the input slice is
// not modified. Unions are idempotent, so UniteAll on the deduped batch
// yields the same partition and merge count as on the raw batch. This is
// the Prefilter pass, hoisted into the execution layer so every backend —
// engine-pooled or direct-concurrent — shares one implementation.
//
// The dedup set is open-addressed over a preallocated power-of-two table
// rather than a Go map: one linear probe per edge against flat memory, no
// per-entry allocation. Slot 0 doubles as the empty marker — a normalized
// key always has max(X,Y) in its high word, and max > min rules out key 0
// once self-loops are dropped.
func Dedup(edges []Edge) []Edge {
	out := make([]Edge, 0, len(edges))
	size := 1
	for size < 2*len(edges) {
		size <<= 1
	}
	table := make([]uint64, size)
	mask := uint64(size - 1)
	for _, e := range edges {
		if e.X == e.Y {
			continue
		}
		lo, hi := e.X, e.Y
		if lo > hi {
			lo, hi = hi, lo
		}
		key := uint64(hi)<<32 | uint64(lo)
		h := randutil.Mix64(key) & mask
		for {
			switch table[h] {
			case 0:
				table[h] = key
				out = append(out, e)
			case key:
				// duplicate
			default:
				h = (h + 1) & mask
				continue
			}
			break
		}
	}
	return out
}
