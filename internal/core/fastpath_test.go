package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/randutil"
	"repro/internal/workload"
)

// fastFinds are the variants with the flat-forest fast path.
var fastFinds = []Find{FindNaive, FindOneTry, FindTwoTry}

// byID returns d's elements in increasing id order, so a forest built
// from it points up the linking order as Lemma 3.1 requires.
func byID(d *DSU) []uint32 {
	xs := make([]uint32, d.N())
	for i := range xs {
		xs[i] = uint32(i)
	}
	slices.SortFunc(xs, func(a, b uint32) int { return int(d.ID(a)) - int(d.ID(b)) })
	return xs
}

// general returns a structure over the same forest as d with the fast
// path switched off: the unchanged Algorithm 2/3 loops.
func general(d *DSU) *DSU {
	g := New(d.N(), d.Config())
	g.fast = false
	for x, p := range d.Snapshot() {
		g.LoadParent(uint32(x), p)
	}
	return g
}

// TestFastPathStats pins the counted work of fast-path hits on two
// stars: star A's leaves a1, a2 under root ra, star B's leaf b1 under
// rb, with rb above ra in the linking order. A splitting find at depth
// ≤ 1 is one step and two reads; a naive one is a step and a read per
// node it visits.
func TestFastPathStats(t *testing.T) {
	type want struct {
		result                 bool
		reads, steps, cas      int64
		links                  int64
		finds, rounds, ops     int64
		naiveReads, naiveSteps int64
	}
	for _, f := range fastFinds {
		for _, c := range []struct {
			name  string
			unite bool
			x, y  int // indices into the star elements a1, a2, ra, b1, rb
			want  want
		}{
			{"sameset leaves true", false, 0, 1, want{true, 4, 2, 0, 0, 2, 1, 1, 4, 4}},
			{"sameset leaves false", false, 0, 3, want{false, 5, 2, 0, 0, 2, 1, 1, 5, 4}},
			{"sameset root and leaf", false, 2, 0, want{true, 4, 2, 0, 0, 2, 1, 1, 3, 3}},
			{"unite leaves linked", true, 0, 3, want{true, 4, 2, 1, 1, 2, 1, 1, 4, 4}},
			{"unite leaves same set", true, 1, 0, want{false, 4, 2, 0, 0, 2, 1, 1, 4, 4}},
			{"unite roots", true, 4, 2, want{true, 4, 2, 1, 1, 2, 1, 1, 2, 2}},
		} {
			t.Run(fmt.Sprintf("%v/%s", f, c.name), func(t *testing.T) {
				d := New(8, Config{Find: f, Seed: 5})
				if !d.fast {
					t.Fatal("variant has no fast path")
				}
				o := byID(d)
				a1, a2, ra, b1, rb := o[0], o[1], o[2], o[3], o[4]
				d.LoadParent(a1, ra)
				d.LoadParent(a2, ra)
				d.LoadParent(b1, rb)
				el := []uint32{a1, a2, ra, b1, rb}
				x, y := el[c.x], el[c.y]
				g := general(d)

				var st, gst Stats
				var got, gotGeneral bool
				if c.unite {
					got, gotGeneral = d.UniteCounted(x, y, &st), g.UniteCounted(x, y, &gst)
				} else {
					got, gotGeneral = d.SameSetCounted(x, y, &st), g.SameSetCounted(x, y, &gst)
				}
				w := c.want
				if f == FindNaive {
					w.reads, w.steps = w.naiveReads, w.naiveSteps
				}
				exp := Stats{Reads: w.reads, CASAttempts: w.cas, FindSteps: w.steps, Rounds: w.rounds,
					Finds: w.finds, Links: w.links, Ops: w.ops}
				if got != w.result || st != exp {
					t.Errorf("got %v %+v, want %v %+v", got, st, w.result, exp)
				}
				if gotGeneral != got || gst != st {
					t.Errorf("general path got %v %+v, fast path %v %+v", gotGeneral, gst, got, st)
				}
				if c.unite && w.links == 1 {
					if p := d.Parent(ra); p != rb {
						t.Errorf("lower root %d now has parent %d, want %d", ra, p, rb)
					}
				}
			})
		}
	}
}

// TestFastPathDeepFallback builds a chain x0 → x1 → x2 → x3 (ids
// increasing): x0 is at depth 3, so the fast path must fall back to the
// general loop, whose splitting finds compact the chain — work the fast
// path never does — with the counts and the forest of the general path.
func TestFastPathDeepFallback(t *testing.T) {
	for _, f := range fastFinds {
		for _, query := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/query=%v", f, query), func(t *testing.T) {
				d := New(8, Config{Find: f, Seed: 9})
				o := byID(d)
				x0, x1, x2, x3, y := o[0], o[1], o[2], o[3], o[4]
				d.LoadParent(x0, x1)
				d.LoadParent(x1, x2)
				d.LoadParent(x2, x3)
				g := general(d)
				var st, gst Stats
				var got, gotGeneral bool
				if query {
					got, gotGeneral = d.SameSetCounted(x0, y, &st), g.SameSetCounted(x0, y, &gst)
				} else {
					got, gotGeneral = d.UniteCounted(x0, y, &st), g.UniteCounted(x0, y, &gst)
				}
				if got != gotGeneral || st != gst {
					t.Fatalf("fast path %v %+v, general %v %+v", got, st, gotGeneral, gst)
				}
				if !slices.Equal(d.Snapshot(), g.Snapshot()) {
					t.Fatalf("forests differ: %v vs %v", d.Snapshot(), g.Snapshot())
				}
				if f != FindNaive && st.Rewrites == 0 {
					t.Fatalf("splitting find on a depth-3 path rewrote nothing: %+v", st)
				}
				if want := int64(4); f == FindNaive && st.FindSteps < want {
					t.Fatalf("naive find on a depth-3 path took %d steps, want ≥ %d", st.FindSteps, want)
				}
			})
		}
	}
}

// TestFastPathMatchesGeneral replays random op streams through twin
// structures, fast path on and off: every answer, every counted Stats
// value and the final forest must agree, from the deep forests of the
// first unions to the flat ones at the end.
func TestFastPathMatchesGeneral(t *testing.T) {
	const n = 512
	for _, f := range fastFinds {
		t.Run(f.String(), func(t *testing.T) {
			d := New(n, Config{Find: f, Seed: 3})
			g := general(d)
			var st, gst Stats
			rng := randutil.NewXoshiro256(17)
			for i, op := range workload.Mixed(n, 8*n, 0.5, 29) {
				var got, want bool
				if op.Kind == workload.OpUnite {
					got, want = d.UniteCounted(op.X, op.Y, &st), g.UniteCounted(op.X, op.Y, &gst)
				} else {
					got, want = d.SameSetCounted(op.X, op.Y, &st), g.SameSetCounted(op.X, op.Y, &gst)
				}
				if got != want || st != gst {
					t.Fatalf("op %d %+v: fast %v %+v, general %v %+v", i, op, got, st, want, gst)
				}
				if rng.Intn(64) == 0 && !slices.Equal(d.Snapshot(), g.Snapshot()) {
					t.Fatalf("op %d: forests differ", i)
				}
			}
			if !slices.Equal(d.Snapshot(), g.Snapshot()) {
				t.Fatal("final forests differ")
			}
		})
	}
}
