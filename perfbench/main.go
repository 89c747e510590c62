// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the system's public entry points, checks every output
// against an independent oracle, and prints its metrics; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, via perfbench/run.sh):
//
//	run.sh --workload adl-nested|ssb-star|serve-mixed --seed N --seconds S --trace 0|1
//	run.sh compare DIR_A DIR_B   # verdicts over two sets of run records
//	run.sh selftest              # every workload at tiny sizes, plus a negative case
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// times each layer call from the benchmark's own code and reports the
// per-layer metrics. See perfbench/README.md for every metric's definition.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metric is one reported number with its unit and the samples behind it
// (0 for counts and single readings).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run's record.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Env       map[string]any    `json:"env"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// Detail holds figures outside BENCHMARK.json: error_share and the
	// per-query breakdowns (<q>.exec_ms, <q>.gen_over_hand, ...).
	Detail map[string]metric `json:"detail"`
}

func newResult(cfg config) *result {
	return &result{
		Workload: cfg.workload,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Env:      baseEnv(),
		Metrics:  map[string]metric{},
		Detail:   map[string]metric{},
	}
}

func (r *result) set(name string, v float64, unit string, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Samples: n}
}

func (r *result) detail(name string, v float64, unit string, n int) {
	r.Detail[name] = metric{Value: v, Unit: unit, Samples: n}
}

// fail counts one failed operation and keeps its first messages.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 20 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

func (r *result) correct() bool { return r.Failed == 0 && r.Attempted > 0 }

// endToEnd and perLayer are the metric names BENCHMARK.json declares; a run
// must report exactly one of the two sets.
var endToEnd = []string{
	"setup_s", "heap_after_setup_mb", "alloc_kb_per_op", "suite_s",
	"query_geomean_ms", "ops_per_s", "query_p50_ms", "load_p50_ms", "view_p50_ms",
}

var perLayer = []string{
	"jsoniq.parse_us", "jsoniq.rewrite_us", "iterplan.build_us", "iterplan.iterators",
	"core.translate_us", "core.gen_over_hand", "snowpark.render_us", "snowpark.sql_bytes",
	"sqlparse.parse_us", "engine.prepare_us", "engine.bind_us", "engine.exec_ms",
	"engine.rows_processed", "engine.bytes_scanned_mb", "engine.typed_col_share",
	"engine.mem_peak_mb", "engine.plan_cache_hit_ratio", "engine.result_cache_hit_ratio",
	"engine.result_cache_invalidations_per_load", "engine.view_delta_parts_per_refresh",
	"server.overhead_us", "server.response_kb", "variant.parse_us_per_doc", "variant.encode_us",
	"storage.append_us_per_doc", "storage.flush_ms", "storage.reopen_ms",
	"storage.disk_bytes_per_input_byte", "storage.mem_bytes_per_input_byte", "storage.partitions",
	"goruntime.gc_cpu_share", "trace.overhead_share", "trace.unaccounted_share",
}

// countMetrics must repeat exactly between two traced runs of one seed.
var countMetrics = []string{"iterplan.iterators", "snowpark.sql_bytes", "engine.rows_processed", "storage.partitions"}

// config is one run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	sz       sizes
	// corrupt tampers with one expected output (the self-test's negative
	// case): the run must then report a mismatch.
	corrupt bool
}

// sizes are the workload input sizes; selftest shrinks them.
type sizes struct {
	ADLEvents int     `json:"adl_events"`
	SSBScale  float64 `json:"ssb_scale_factor"`
	ServeADL  int     `json:"serve_adl_events"`
	ServeLive int     `json:"serve_live_events"`
	ServeOps  int     `json:"serve_ops_per_run_second"`
	// SetupReps is the number of rounds of serve-mixed, each a set-up that
	// then serves the whole sequence; SuiteSetups is the number of set-ups a
	// suite run times.
	SetupReps   int `json:"setup_reps"`
	SuiteSetups int `json:"suite_setups"`
	MinPasses   int `json:"min_passes"`
}

// loadBatch is the number of documents in one load: a /load request on
// serve-mixed, one LoadObject batch of a suite's set-up.
const loadBatch = 10

var fullSizes = sizes{
	ADLEvents: 20000, SSBScale: 4, ServeADL: 2000, ServeLive: 1000,
	ServeOps: 400, SetupReps: 5, SuiteSetups: 10, MinPasses: 2,
}

var tinySizes = sizes{
	ADLEvents: 200, SSBScale: 0.05, ServeADL: 200, ServeLive: 100,
	ServeOps: 100, SetupReps: 2, SuiteSetups: 2, MinPasses: 1,
}

var workloads = map[string]func(cfg config) (*result, error){
	"adl-nested":  func(cfg config) (*result, error) { return runSuite(cfg, adlSuite(cfg)) },
	"ssb-star":    func(cfg config) (*result, error) { return runSuite(cfg, ssbSuite(cfg)) },
	"serve-mixed": runServe,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "selftest":
			if err := selfTest(os.Stdout, "BENCHMARK.json", filepath.Join(".bench_out", "selftest")); err != nil {
				fmt.Fprintln(os.Stderr, "selftest:", err)
				os.Exit(1)
			}
			fmt.Println("selftest: ok")
			return
		}
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "adl-nested, ssb-star or serve-mixed")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", ".bench_out", "directory for run records, span files and server data")
	_ = fs.Parse(os.Args[1:])
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, sz: fullSizes}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printReport(os.Stdout, res)
	if !res.correct() {
		os.Exit(1)
	}
}

// run executes one workload and writes its record to cfg.out.
func run(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	res, err := workloads[cfg.workload](cfg)
	if err != nil {
		return nil, err
	}
	res.Env["sizes"] = cfg.sz
	res.Env["seconds"] = cfg.seconds
	res.detail("error_share", ratio(float64(res.Failed), float64(res.Attempted)), "fraction", res.Attempted)
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, n := range want {
		if _, ok := res.Metrics[n]; !ok {
			return nil, fmt.Errorf("workload %s did not report %s", cfg.workload, n)
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace)))
	return res, os.WriteFile(path, b, 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// baseEnv records the machine and build a run measured.
func baseEnv() map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env["commit"] = s.Value
			case "vcs.modified":
				env["commit_modified"] = s.Value
			}
		}
	}
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		env["commit"] = c
	}
	return env
}

// printReport writes the human-readable table, then the result line.
func printReport(w *os.File, res *result) {
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v attempted=%d failed=%d env=%s\n",
		res.Workload, res.Seed, res.Trace, res.Attempted, res.Failed, compactJSON(res.Env))
	for _, e := range res.Errors {
		fmt.Fprintln(w, "error:", e)
	}
	for _, m := range []map[string]metric{res.Metrics, res.Detail} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-44s %14.6g %-9s n=%d\n", n, m[n].Value, m[n].Unit, m[n].Samples)
		}
	}
	line := struct {
		Correct   bool                      `json:"correct"`
		Attempted int                       `json:"attempted"`
		Failed    int                       `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]map[string]any{}}
	for n, m := range res.Metrics {
		line.Metrics[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	fmt.Fprintln(w, compactJSON(line))
}

func compactJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("%q", err.Error())
	}
	return string(b)
}

// timeLeft reports whether another step of length last fits in the budget
// that started at start.
func timeLeft(start time.Time, budget float64, last time.Duration) bool {
	return time.Since(start)+last <= time.Duration(budget*float64(time.Second))
}
