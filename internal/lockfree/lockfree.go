// Package lockfree builds the lock-free structure kind: a core.DSU
// restricted to what the concurrent batch path defines. It holds no
// algorithm of its own — core.DSU already is the paper's wait-free
// algorithm, and its UniteDirect and SameSetDirect make it an
// exec.ConcurrentOps, which engine.Direct drives as an exec.Backend. The
// package stays as the constructor the benchmark harness and E23 import.
package lockfree

import "repro/internal/core"

// New returns a core.DSU over n singleton elements for the lock-free
// kind. The config's Find must be one of the splitting family —
// FindNaive, FindOneTry, or FindTwoTry (zero defaults to FindTwoTry) —
// and EarlyTermination is not supported: the Section 6 interleavings
// optimize the two-find sequential pattern the direct batch path does not
// use. It panics on out-of-range n or an unsupported config.
func New(n int, cfg core.Config) *core.DSU {
	if cfg.EarlyTermination {
		panic("lockfree: early termination is not supported by the lock-free backend")
	}
	switch cfg.Find {
	case 0, core.FindNaive, core.FindOneTry, core.FindTwoTry:
	default:
		panic("lockfree: find strategy must be naive, one-try, or two-try splitting")
	}
	return core.New(n, cfg)
}
