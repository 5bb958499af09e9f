package core_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/linearize"
	"repro/internal/randutil"
	"repro/internal/seqdsu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// concurrentFinds are the variants the lock-free kind runs, each with
// the flat-forest fast path.
var concurrentFinds = []core.Find{core.FindNaive, core.FindOneTry, core.FindTwoTry}

// TestPointOpsLinearizable drives real goroutines through Unite/SameSet on
// one structure and feeds the timed history to the Wing–Gong checker:
// every observed outcome must be explained by some sequential order
// consistent with real time. A global atomic tick stamps invocation and
// response, so the recorded intervals are real-time-consistent and
// per-goroutine sequential — exactly what trace.Validate demands.
// Histories stay under the checker's 63-op ceiling (small n, few procs,
// few ops); the value of the test is the -race schedule diversity across
// seeds and find variants, not volume. On n=8 most operations take the
// fast path, and the rest fall back to the general loop.
func TestPointOpsLinearizable(t *testing.T) {
	const (
		n       = 8
		procs   = 3
		opsEach = 5
	)
	for _, f := range concurrentFinds {
		for seed := uint64(1); seed <= 12; seed++ {
			t.Run(fmt.Sprintf("%v/seed=%d", f, seed), func(t *testing.T) {
				d := core.New(n, core.Config{Find: f, Seed: seed})
				rec := trace.NewRecorder(procs)
				var tick atomic.Int64
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					ops := workload.Mixed(n, opsEach, 0.6, seed*31+uint64(p))
					wg.Add(1)
					go func(p int, ops []workload.Op) {
						defer wg.Done()
						for _, op := range ops {
							inv := tick.Add(1)
							var res bool
							switch op.Kind {
							case workload.OpUnite:
								res = d.Unite(op.X, op.Y)
							case workload.OpSameSet:
								res = d.SameSet(op.X, op.Y)
							}
							resp := tick.Add(1)
							rec.Record(p, trace.Event{
								Proc: p, Kind: op.Kind,
								X: op.X, Y: op.Y,
								Result: res, Inv: inv, Resp: resp,
							})
							runtime.Gosched()
						}
					}(p, ops)
				}
				wg.Wait()

				h := rec.History()
				if err := h.Validate(); err != nil {
					t.Fatalf("recorded history invalid: %v", err)
				}
				if _, err := linearize.Check(n, h); err != nil {
					t.Fatalf("history not linearizable: %v\n%v", err, h)
				}
			})
		}
	}
}

// TestUniteBooleanNoDoubleClaim checks Unite's linearizable boolean under
// heavy symmetric contention: when every goroutine hammers the same pair,
// exactly one call in total may claim the merge.
func TestUniteBooleanNoDoubleClaim(t *testing.T) {
	const procs = 8
	for _, f := range concurrentFinds {
		for seed := uint64(1); seed <= 20; seed++ {
			d := core.New(4, core.Config{Find: f, Seed: seed})
			var claims atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < procs; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if d.Unite(1, 3) {
						claims.Add(1)
					}
				}()
			}
			wg.Wait()
			if got := claims.Load(); got != 1 {
				t.Fatalf("%v seed %d: %d callers claimed the (1,3) merge, want exactly 1", f, seed, got)
			}
			if !d.SameSet(1, 3) || d.Sets() != 3 {
				t.Fatalf("%v seed %d: merge not applied", f, seed)
			}
		}
	}
}

// TestOverlappingBatchesExactMerges is the no-barrier contract's
// accounting half: many direct batches overlapping on one structure from
// many goroutines, with point operations racing them, must sum their
// Merged counts to exactly initial sets − final sets — every successful
// link counted exactly once — and land on the oracle partition.
func TestOverlappingBatchesExactMerges(t *testing.T) {
	const n, batches, perBatch = 2048, 8, 1024
	for _, f := range concurrentFinds {
		t.Run(f.String(), func(t *testing.T) {
			d := core.New(n, core.Config{Find: f, Seed: 21})
			rng := randutil.NewXoshiro256(77)
			all := make([][]exec.Edge, batches)
			ref := seqdsu.New(n, seqdsu.LinkRank, seqdsu.CompactHalving, 1)
			for i := range all {
				for _, op := range workload.RandomUnions(n, perBatch, rng.Next()) {
					all[i] = append(all[i], exec.Edge{X: op.X, Y: op.Y})
					ref.Unite(op.X, op.Y)
				}
			}
			points := workload.RandomUnions(n, 256, 123)
			for _, op := range points {
				ref.Unite(op.X, op.Y)
			}

			var wg sync.WaitGroup
			results := make([]exec.Result, batches)
			for i := range all {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					results[i] = exec.UniteAllDirect(d, all[i], exec.Config{Workers: 2})
				}(i)
			}
			// Point operations race the batches; their merges must be
			// counted by them alone, never double-counted by a batch.
			var merged int64
			for _, op := range points {
				if d.Unite(op.X, op.Y) {
					merged++
				}
			}
			wg.Wait()

			for _, r := range results {
				merged += r.Merged
				if r.CASRetries < 0 {
					t.Fatalf("negative CASRetries %d", r.CASRetries)
				}
			}
			if want := int64(n - d.Sets()); merged != want {
				t.Fatalf("summed merges %d, want exactly %d (initial − final sets)", merged, want)
			}
			want := ref.CanonicalLabels()
			for x, got := range d.CanonicalLabels() {
				if got != want[x] {
					t.Fatalf("label[%d] = %d, want %d", x, got, want[x])
				}
			}
		})
	}
}
