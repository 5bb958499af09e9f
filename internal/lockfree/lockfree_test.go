package lockfree

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exec"
	"repro/internal/randutil"
	"repro/internal/seqdsu"
	"repro/internal/workload"
)

// oracle replays unite ops through the classical sequential structure.
func oracle(n int, ops []workload.Op) *seqdsu.DSU {
	ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
	for _, op := range ops {
		if op.Kind == workload.OpUnite {
			ref.Unite(op.X, op.Y)
		}
	}
	return ref
}

// TestUpwardPointerInvariant drives a random workload and checks the
// paper's Lemma 3.1 afterwards: every parent pointer moves up the random
// linking order, ID(parent[x]) ≥ ID(x), under every find variant.
func TestUpwardPointerInvariant(t *testing.T) {
	const n = 512
	for _, f := range []core.Find{core.FindNaive, core.FindOneTry, core.FindTwoTry} {
		t.Run(f.String(), func(t *testing.T) {
			d := New(n, core.Config{Find: f, Seed: 3})
			for _, op := range workload.RandomUnions(n, 3*n, 5) {
				d.Unite(op.X, op.Y)
				d.Find(op.X)
			}
			for x := uint32(0); x < n; x++ {
				if p := d.Parent(x); d.ID(p) < d.ID(x) {
					t.Fatalf("parent[%d] = %d points down the linking order", x, p)
				}
			}
		})
	}
}

// TestMatchesOracleSequential cross-validates the full quiescent surface
// against the sequential specification, per find variant.
func TestMatchesOracleSequential(t *testing.T) {
	const n = 1000
	for _, f := range []core.Find{core.FindNaive, core.FindOneTry, core.FindTwoTry} {
		for _, seed := range []uint64{1, 9} {
			t.Run(fmt.Sprintf("%v/seed=%d", f, seed), func(t *testing.T) {
				ops := workload.RandomUnions(n, 2*n, seed)
				d := New(n, core.Config{Find: f, Seed: seed})
				merged := 0
				for _, op := range ops {
					if d.Unite(op.X, op.Y) {
						merged++
					}
				}
				ref := oracle(n, ops)
				if got, want := n-d.Sets(), merged; got != want {
					t.Fatalf("links %d, reported merges %d", got, want)
				}
				if d.Sets() != ref.Sets() {
					t.Fatalf("Sets() = %d, oracle %d", d.Sets(), ref.Sets())
				}
				want := ref.CanonicalLabels()
				got := d.CanonicalLabels()
				for x := range got {
					if got[x] != want[x] {
						t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
					}
				}
				snap := d.Snapshot()
				for x := range snap {
					if !d.SameSet(uint32(x), snap[x]) {
						t.Fatalf("snapshot parent %d of %d not in its set", snap[x], x)
					}
				}
			})
		}
	}
}

// TestConstructorContract pins New's panics: out-of-range n, early
// termination, and the non-splitting find variants.
func TestConstructorContract(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"negative n", func() { New(-1, core.Config{}) }},
		{"n over 2^31-1", func() { New(1<<31, core.Config{}) }},
		{"early termination", func() { New(4, core.Config{EarlyTermination: true}) }},
		{"halving", func() { New(4, core.Config{Find: core.FindHalving}) }},
		{"compression", func() { New(4, core.Config{Find: core.FindCompress}) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			c.fn()
		})
	}
	if d := New(0, core.Config{}); d.N() != 0 || d.Sets() != 0 {
		t.Error("empty universe should construct")
	}
	if got := New(4, core.Config{}).Config().Find; got != core.FindTwoTry {
		t.Errorf("zero Find defaulted to %v, want two-try", got)
	}
}

// TestOverlappingBatchesExactMerges is the no-barrier contract's
// accounting half: many UniteAll calls overlapping on one structure from
// many goroutines, with point operations racing them, must sum their
// Merged counts to exactly initial sets − final sets — every successful
// link counted exactly once — and land on the oracle partition.
func TestOverlappingBatchesExactMerges(t *testing.T) {
	const n, batches, perBatch = 2048, 8, 1024
	d := New(n, core.Config{Seed: 21})
	rng := randutil.NewXoshiro256(77)
	all := make([][]exec.Edge, batches)
	var flatOps []workload.Op
	for i := range all {
		ops := workload.RandomUnions(n, perBatch, rng.Next())
		flatOps = append(flatOps, ops...)
		edges := make([]exec.Edge, len(ops))
		for j, op := range ops {
			edges[j] = exec.Edge{X: op.X, Y: op.Y}
		}
		all[i] = edges
	}

	var wg sync.WaitGroup
	results := make([]exec.Result, batches)
	for i := range all {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = engine.Direct{D: d}.UniteAll(all[i], exec.Config{Workers: 2})
		}(i)
	}
	// Point operations race the batches; their merges must be counted by
	// them alone (Unite returning true), never double-counted by a batch.
	pointMerged := 0
	for _, op := range workload.RandomUnions(n, 256, 123) {
		if d.Unite(op.X, op.Y) {
			pointMerged++
		}
		flatOps = append(flatOps, op)
	}
	wg.Wait()

	var batchMerged int64
	for _, r := range results {
		batchMerged += r.Merged
		if r.CASRetries < 0 {
			t.Fatalf("negative CASRetries %d", r.CASRetries)
		}
	}
	if got, want := batchMerged+int64(pointMerged), int64(n-d.Sets()); got != want {
		t.Fatalf("summed merges %d, want exactly %d (initial − final sets)", got, want)
	}
	ref := oracle(n, flatOps)
	want := ref.CanonicalLabels()
	got := d.CanonicalLabels()
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("label[%d] = %d, want %d", x, got[x], want[x])
		}
	}
}

// TestBatchFiltersAndQueries covers the lock-free kind's exec.Backend
// surface, engine.Direct: prefilter and connected-filter neutrality,
// query batches, and the screen.
func TestBatchFiltersAndQueries(t *testing.T) {
	const n = 800
	ops := workload.ZipfMixed(n, 4*n, 1.0, 1.2, 9)
	edges := make([]exec.Edge, len(ops))
	for i, op := range ops {
		edges[i] = exec.Edge{X: op.X, Y: op.Y}
	}
	raw := engine.Direct{D: New(n, core.Config{Seed: 4})}
	rawRes := raw.UniteAll(edges, exec.Config{})
	filt := engine.Direct{D: New(n, core.Config{Seed: 4})}
	filtRes := filt.UniteAll(edges, exec.Config{Prefilter: true, ConnectedFilter: true})
	if rawRes.Merged != filtRes.Merged {
		t.Fatalf("merged %d raw vs %d filtered", rawRes.Merged, filtRes.Merged)
	}
	if filtRes.Filtered == 0 {
		t.Fatal("Zipf batch should report filtered edges")
	}
	wantLabels := raw.D.CanonicalLabels()
	gotLabels := filt.D.CanonicalLabels()
	for x := range gotLabels {
		if gotLabels[x] != wantLabels[x] {
			t.Fatalf("label[%d] = %d, want %d", x, gotLabels[x], wantLabels[x])
		}
	}

	ans, _ := raw.SameSetAll(edges, exec.Config{Workers: 3})
	for i, e := range edges {
		if want := raw.D.SameSet(e.X, e.Y); ans[i] != want {
			t.Fatalf("query %d (%d,%d) = %v, point %v", i, e.X, e.Y, ans[i], want)
		}
	}
	kept, _ := raw.ScreenConnected(edges, exec.Config{})
	for _, e := range kept {
		if raw.D.SameSet(e.X, e.Y) {
			t.Fatalf("screen kept connected edge (%d,%d)", e.X, e.Y)
		}
	}
}
