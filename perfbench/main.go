// Command perfbench is the repository benchmark: one command that runs a
// workload end to end, checks every output against the sequential
// oracle (internal/seqdsu), and prints each metric by name with its
// unit. BENCHMARK.json at the repository root lists the workloads and
// metrics; run.sh builds this package and runs it:
//
//	bash perfbench/run.sh --workload pipe-ingest --seed 1 --seconds 30 --trace 0
//
// With --trace 0 a run measures the end-to-end metrics with tracing off:
// the workload is set up and timed pass after pass until --seconds have
// elapsed; throughput and latency are read from the run's fastest
// window of work, past the host's contention (see measure). With
// --trace 1 it prices each layer instead, in a run whose length the work
// fixes: the ladder times each module's public calls on the workload's
// own seeded input, and traced /pipe, /stream and RPC passes break a
// frame's latency into the program's span stages. pipe-ingest and the
// passes over the wire run on one Go processor (see wireProcs).
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report with the host.
//
// # Workloads and what they should move
//
// Every tenant has n=2^17 elements, so its state stays in a core's L2
// (see wireN); pipe-ingest's DSU work is then a small share of a frame,
// and point-mix's 2 workers share one cache-resident structure.
//
// pipe-ingest: one flat tenant, n=2^17, 16n uniform unite edges over
// binary /pipe on loopback, 8192-edge frames, one producer in a closed
// loop with at most 4 frames in flight. The remote write path with no
// WAL: it loads internal/wire, internal/server, internal/exec and
// internal/engine. Layer metrics that should move it: wire.*, server.*,
// engine.*, core.* (a little). Should not move it: wal.*,
// dsu.stream_ns_per_edge, dsu.point_ns_per_op.
//
// The durable /stream path (internal/wal with group-commit fsync,
// dsu.Stream, internal/pipeline) is priced by every --trace 1 run but is
// not an end-to-end workload: as one (n=2^17, 8n edges pushed 8192 at a
// time into a durable tenant), the best-window throughput and latency of
// ten 30-second runs spread 22% and 21% between runs, too near a 25%
// bound for a gate. The ladder's wal.* and dsu.stream_ns_per_edge rungs,
// server.stream_ns_per_edge, and a traced durable /stream pass whose
// sealed log gives wal.batches_per_fsync, wal.bytes_per_edge and
// wal.recover_ms measure it instead. None of them should move
// pipe-ingest or point-mix.
//
// point-mix: in process, no wire. One "lockfree" tenant, n=2^17, driven
// by 2 goroutines issuing unsynchronized Universe.Unite and SameSet
// calls from a seeded uniform workload.Mixed stream of 32n (4M) ops, 20%
// unites. The paper's APRAM regime: internal/core-style CAS linking
// under contention, 80% reads, one structure shared by both cores. Should
// move it: core.*, exec.cas_retries_per_op, dsu.point_ns_per_op. Should
// not move it: wire.*, server.*, engine.*, wal.*. Its "frame" for
// latency_p50_ms is one goroutine's run of 8192 consecutive ops.
//
// <layer>.allocs_per_edge and <layer>.heap_bytes_per_edge, on every
// rung, should move peak_rss_mib. (wal.bytes_per_edge and
// wire.bytes_per_edge are the log's and the encoding's size per edge.)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report accumulates a run's verdict and metrics. Every workload and the
// per-layer run write into one, and main prints it as the final line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	log io.Writer // the human-readable report, before the JSON line
}

func newReport(log io.Writer) *report {
	return &report{Correct: true, Metrics: map[string]metric{}, log: log}
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed correctness check: it counts as one failed
// attempt and makes the run incorrect.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.Failed++
	fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  float64
}

// workloadSpec is one named input set: how to run it and how many Go
// processors (GOMAXPROCS) it runs on. 0 keeps the runtime's default, one
// per CPU.
type workloadSpec struct {
	run   func(options, *report) error
	procs int
}

// wireProcs is the GOMAXPROCS of every pass over the wire. On a shared
// 2-vCPU host whose vCPUs the hypervisor takes away in bursts,
// consecutive /pipe runs on two processors read anywhere from 3.9 to
// 10.4 Mop/s, while the same runs on one processor held within 2.3%;
// /stream runs spread 31% on two and 15% on one. A frame crosses a chain
// of goroutine handoffs, and with two processors each is a cross-CPU
// wakeup that stalls whenever either vCPU is away. On one processor the
// passes over the wire price the stack's work per edge; point-mix keeps
// every CPU, for the paper's concurrent regime.
const wireProcs = 1

var workloads = map[string]workloadSpec{
	"pipe-ingest": {runPipeIngest, wireProcs},
	"point-mix":   {runPointMix, 0},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: pipe-ingest or point-mix")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "how long the timed passes run, in seconds")
	trace := fs.Int("trace", 0, "0 measures end-to-end metrics untraced; 1 measures the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %s, --seconds > 0, --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	opt := options{workload: *workload, seed: *seed, seconds: *seconds}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	rep := newReport(out)
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(out, "# host: nproc=%d GOMAXPROCS=%d %s %s/%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)

	var err error
	if *trace == 0 {
		err = w.run(opt, rep)
		if err == nil {
			rep.set("peak_rss_mib", peakRSSMiB(), "MiB")
		}
	} else {
		err = runLayers(opt, rep)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if rep.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: nothing was attempted")
		return 1
	}
	printMetrics(out, rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(out, "%s\n", line)
	return 0
}

// scratchDir holds everything a run writes: WAL directories (removed
// after each pass) and trace dumps. It is the build directory run.sh
// uses, so it stays inside the checkout and out of git.
const scratchDir = ".bench_build/run"

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(w io.Writer, r *report) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	rate := float64(r.Failed) / float64(max(r.Attempted, 1))
	fmt.Fprintf(w, "%-40s %14.6g (failed %d of %d attempted; correct=%v)\n", "error_rate", rate, r.Failed, r.Attempted, r.Correct)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// peakRSSMiB reads the process's peak resident set (VmHWM) from
// /proc/self/status, falling back to the Go runtime's total memory
// obtained from the OS where /proc is unavailable.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
