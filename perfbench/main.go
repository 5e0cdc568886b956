// Command perfbench is the repository's end-to-end benchmark. It builds H²
// matrices with the repository's packages, drives them the way a user
// would, checks every output, and prints one JSON result line:
//
//	perfbench --workload solve|serve-otf|serve-mixed|all --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, measured from spans the benchmark
// records around its own calls into each package. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"h2ds/internal/mat"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; TestCatalogMatchesBenchmarkJSON keeps them in step.
type metricDef struct {
	name, unit string
	perLayer   bool
}

var catalog = []metricDef{
	{"setup_s", "s", false},
	{"mem_mib", "MiB", false},
	{"latency_p50_ms", "ms", false},
	{"latency_p90_ms", "ms", false},
	{"rps", "1/s", false},

	{"tree.build_ms", "ms", true},
	{"sample.ms", "ms", true},
	{"sample.cache_hit_ratio", "ratio", true},
	{"mat.id_ms", "ms", true},
	{"mat.transfer_ms", "ms", true},
	{"kernel.assembly_ms", "ms", true},
	{"kernel.otf_eval_ms", "ms", true},
	{"kernel.evals_per_apply", "count", true},
	{"kernel.eval_rate_geps", "Geval/s", true},
	{"core.store_ms", "ms", true},
	{"core.apply_ms", "ms", true},
	{"core.up_ms", "ms", true},
	{"core.coupling_ms", "ms", true},
	{"core.down_ms", "ms", true},
	{"core.leaf_ms", "ms", true},
	{"core.bytes_per_apply_mib", "MiB", true},
	{"core.apply_gbps", "GB/s", true},
	{"par.busy_ratio", "ratio", true},
	{"solver.solve_s", "s", true},
	{"solver.iterations", "count", true},
	{"solver.self_ms", "ms", true},
	{"serve.queue_wait_ms", "ms", true},
	{"serve.flush_ms", "ms", true},
	{"serve.batch_occupancy", "count", true},
	{"serve.dropped", "count", true},
	{"api.handler_ms", "ms", true},
	{"api.self_ms", "ms", true},
	{"loadgen.transport_ms", "ms", true},
	{"registry.build_s", "s", true},
	{"registry.build_due_s", "s", true},
	{"registry.late_ms", "ms", true},
	{"registry.queue_ms", "ms", true},
	{"registry.builds_failed", "count", true},
	{"trace.latency_p50_ms", "ms", true},
	{"trace.rps", "1/s", true},
	{"trace.accounted_ratio", "ratio", true},
}

// Workload parameters (see README.md for why each was chosen).
const (
	tol       = 1e-6  // build tolerance of every matrix
	solveN    = 20000 // solve: exponential kernel, Normal mode
	solveTol  = 1e-8  // solve: CG relative residual target
	sigma     = 10    // solve: shift of the regularized system A + σI
	serveN    = 8000  // serve-*: the served coulomb tenant
	writerN   = 4000  // serve-mixed: writer tenants
	traceDir  = ".bench_build/perfbench-traces"
	errorRows = 12 // rows of the paper's sampled relative-error estimator
)

var workloads = map[string]func(*run) error{
	"solve":       runSolve,
	"serve-otf":   func(r *run) error { return runServe(r, false) },
	"serve-mixed": func(r *run) error { return runServe(r, true) },
}

// runContext is everything needed to reproduce and attribute a result.
type runContext struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Arch       string  `json:"arch"`
	SIMD       bool    `json:"simd"`
	L3Bytes    int64   `json:"l3_bytes"`
	Workers    int     `json:"matrix_workers"`
	Clients    int     `json:"clients"`
	Writers    int     `json:"writers"`
	N          int     `json:"n"`
	Leaf       int     `json:"leaf"`
	Mode       string  `json:"mode"`
	Kernel     string  `json:"kernel"`
	Tol        float64 `json:"tol"`
	Sampler    string  `json:"sampler"`
}

// run is one workload execution: its inputs, operation counts, metrics and
// (when tracing) spans.
type run struct {
	seed     int64
	deadline time.Duration // measured phase length
	nproc    int
	tr       *tracer // nil when untraced
	ctx      runContext

	attempted, failed atomic.Int64
	metrics           map[string]float64
	notes             []string // human-readable lines printed before the result
}

// op records the outcome of one operation; a non-nil err counts it failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		if r.failed.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: failed operation: %v\n", err)
		}
	}
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// randVec returns a standard-normal vector drawn from seed.
func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// execute runs one workload and returns its result line.
func execute(name string, seed int64, seconds int, trace bool) (result, error) {
	nproc := min(runtime.NumCPU(), runtime.GOMAXPROCS(0))
	r := &run{
		seed: seed, deadline: time.Duration(seconds) * time.Second, nproc: nproc,
		metrics: make(map[string]float64),
		ctx: runContext{
			Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
			NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Arch: runtime.GOARCH,
			SIMD: mat.SIMDEnabled(), L3Bytes: l3Bytes(),
			Workers: nproc, Tol: tol, Sampler: "anchornet",
		},
	}
	if trace {
		r.tr = newTracer()
	}
	if err := workloads[name](r); err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	if trace {
		// The traced run's own end-to-end numbers: against an untraced run
		// of the same seed they give the tracing overhead.
		r.metrics["trace.latency_p50_ms"] = r.metrics["latency_p50_ms"]
		r.metrics["trace.rps"] = r.metrics["rps"]
		r.note("working set: %.1f MiB of stored generators read per apply, L3 %.1f MiB",
			r.metrics["core.bytes_per_apply_mib"], float64(r.ctx.L3Bytes)/(1<<20))
		spans := r.tr.snapshot()
		r.metrics["trace.accounted_ratio"] = accounted(spans)
		path, err := writeSpans(traceDir, name, seed, spans)
		if err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		r.note("spans: %d written to %s", len(spans), path)
	}
	res := result{
		Attempted: r.attempted.Load(), Failed: r.failed.Load(),
		Metrics: make(map[string]metricOut),
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range catalog {
		if d.perLayer != trace {
			continue
		}
		v, ok := r.metrics[d.name]
		if !ok {
			return result{}, fmt.Errorf("%s: metric %s was not measured", name, d.name)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	ctxJSON, _ := json.Marshal(r.ctx) // plain struct: cannot fail
	fmt.Printf("# context %s\n", ctxJSON)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	printTable(name, res)
	return res, nil
}

func printTable(name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("# %s: attempted %d failed %d correct %v\n", name, res.Attempted, res.Failed, res.Correct)
	for _, n := range names {
		fmt.Printf("#   %-26s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
}

func main() {
	workload := flag.String("workload", "", "solve, serve-otf, serve-mixed, or all")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	flag.Parse()

	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = []string{"solve", "serve-otf", "serve-mixed"}
	} else if workloads[*workload] == nil {
		fatal(fmt.Errorf("unknown --workload %q (want solve, serve-otf, serve-mixed or all)", *workload))
	}

	total := result{Correct: true, Metrics: make(map[string]metricOut)}
	for _, name := range names {
		res, err := execute(name, *seed, *seconds, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if len(names) == 1 {
			total = res
			break
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err)) // a NaN or Inf metric
		}
		fmt.Printf("# %s result %s\n", name, line)
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[name+"."+k] = v
		}
		runtime.GC()
	}
	line, err := json.Marshal(total)
	if err != nil {
		fatal(err) // a NaN or Inf metric
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}
