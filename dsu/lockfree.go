package dsu

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
)

// LockFree is the paper's algorithm run as an actually-concurrent backend:
// the same wait-free-find, lock-free-unite core.DSU the flat kind runs,
// flat-forest fast path included, with its batches driven differently. It
// implements the full Backend surface, and more: it is the package's
// ConcurrentBackend — every operation, batches included, is safe from any
// number of goroutines with no quiescence requirement, and any number of
// batch calls may overlap on one structure. Where DSU's and Sharded's
// batches funnel through a serialize-then-parallelize engine pool (one
// batch owns the structure, workers claim spans), LockFree's batch workers
// apply edges directly through the point operations (engine.Direct) —
// nothing serializes against other batches, streams, or point callers,
// which is what lets the server run a tenant's in-flight requests truly
// concurrently instead of queueing them.
//
// The find family is restricted to what the concurrent algorithm defines:
// NoCompaction, OneTrySplitting, TwoTrySplitting (the default), or
// FindAuto over those. Halving, Compression, and WithEarlyTermination are
// core's ablation surface and are rejected at construction.
//
// Merged counts are exact even under overlap: every successful root link
// is counted by exactly one call, and the number of links needed to reach
// a partition is schedule-independent — so the sum of Merged across
// overlapping batches equals the sequential count for the combined edge
// set. Quiescent reads (Sets, CanonicalLabels, Components, Snapshot) keep
// their usual contract: exact once no Unites are in flight.
type LockFree struct {
	l *core.DSU
	// x is the unified execution seam all batch, stream, and filter paths
	// route through (and, with FindAuto, the adaptive policy's home).
	x *exec.Executor
	// uni is the structure's anonymous Universe — the tenant-API layer the
	// batch and stream veneers phrase their calls through.
	uni *Universe
}

// NewLockFree returns a lock-free concurrent DSU over n singleton elements
// 0..n−1. It panics if n is out of range or the options are inconsistent:
// the find strategy must be NoCompaction, OneTrySplitting,
// TwoTrySplitting, or FindAuto, and early termination is not supported
// (its interleavings optimize a sequential two-find pattern the direct
// concurrent batch path does not use). WithShards is ignored, as in New.
func NewLockFree(n int, opts ...Option) *LockFree {
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.early {
		panic("dsu: early termination is not supported by the lock-free backend")
	}
	if cfg.find == Halving || cfg.find == Compression {
		panic("dsu: the lock-free backend runs the splitting-family finds only")
	}
	l := core.New(n, core.Config{Find: coreFind(cfg.find), Seed: cfg.seed})
	d := &LockFree{l: l, x: exec.NewExecutor(engine.Direct{D: l}, cfg.find == FindAuto)}
	d.uni = &Universe{b: d}
	return d
}

// executor exposes the execution seam to the batch, stream, and filter
// paths (Backend).
func (d *LockFree) executor() *exec.Executor { return d.x }

// universe exposes the anonymous Universe the veneers route through
// (Backend).
func (d *LockFree) universe() *Universe { return d.uni }

// concurrentOK marks the structure as a ConcurrentBackend: the whole
// operation surface, batches included, carries the no-quiescence contract.
func (d *LockFree) concurrentOK() {}

// N returns the number of elements.
func (d *LockFree) N() int { return d.l.N() }

// Find returns the root (canonical representative at the linearization
// point) of the set containing x. Roots change as sets merge; SameSet is
// the stable way to compare membership.
func (d *LockFree) Find(x uint32) uint32 { return d.l.Find(x) }

// FindCounted is Find with work accounting into st.
func (d *LockFree) FindCounted(x uint32, st *Stats) uint32 { return d.l.FindCounted(x, st) }

// SameSet reports whether x and y are in the same set. The result is
// linearizable: it was exact at an instant during the call.
func (d *LockFree) SameSet(x, y uint32) bool { return d.l.SameSet(x, y) }

// SameSetCounted is SameSet with work accounting into st.
func (d *LockFree) SameSetCounted(x, y uint32, st *Stats) bool {
	return d.l.SameSetCounted(x, y, st)
}

// Unite merges the sets containing x and y. It reports whether this call
// performed the merge, and is lock-free: a failed root-link attempt means
// a concurrent link succeeded.
func (d *LockFree) Unite(x, y uint32) bool { return d.l.Unite(x, y) }

// UniteCounted is Unite with work accounting into st.
func (d *LockFree) UniteCounted(x, y uint32, st *Stats) bool { return d.l.UniteCounted(x, y, st) }

// UniteAll merges across every edge of the batch, workers applying edges
// directly through the lock-free point operations, and returns the number
// of edges that performed a merge. Unlike the flat and sharded batches it
// holds no barrier: any number of UniteAll calls may overlap with each
// other and with every other operation, and the summed merge count across
// overlapping calls is exact for the combined edge set.
func (d *LockFree) UniteAll(edges []Edge, opts ...BatchOption) int {
	return int(uniteVeneer(d.uni, edges, opts).Merged)
}

// UniteAllCounted is UniteAll with work accounting into st.
func (d *LockFree) UniteAllCounted(edges []Edge, st *Stats, opts ...BatchOption) int {
	rep := uniteVeneer(d.uni, edges, opts)
	st.Add(rep.Stats)
	return int(rep.Merged)
}

// SameSetAll answers pairs[i] into element i of the returned slice. Each
// answer is linearizable; with no concurrent Unites the whole slice is
// exact for the current partition.
func (d *LockFree) SameSetAll(pairs []Edge, opts ...BatchOption) []bool {
	return queryVeneer(d.uni, pairs, opts).Answers
}

// SameSetAllCounted is SameSetAll with work accounting into st.
func (d *LockFree) SameSetAllCounted(pairs []Edge, st *Stats, opts ...BatchOption) []bool {
	rep := queryVeneer(d.uni, pairs, opts)
	st.Add(rep.Stats)
	return rep.Answers
}

// Sets returns the number of sets. Call at quiescence for an exact answer.
func (d *LockFree) Sets() int { return d.l.Sets() }

// CanonicalLabels returns, for every element, the minimum element of its
// set. Call at quiescence.
func (d *LockFree) CanonicalLabels() []uint32 { return d.l.CanonicalLabels() }

// Components materializes the partition as sorted element sets ordered by
// their minima. Call at quiescence.
func (d *LockFree) Components() [][]uint32 { return componentsFromLabels(d.l.CanonicalLabels()) }

// Snapshot returns a copy of the parent forest (roots satisfy
// parent[x] == x). Call at quiescence.
func (d *LockFree) Snapshot() []uint32 { return d.l.Snapshot() }

// ID returns x's position in the random linking order, fixed at
// NewLockFree: core's id permutation, as on the flat kind.
func (d *LockFree) ID(x uint32) uint32 { return d.l.ID(x) }
