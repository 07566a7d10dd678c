// Command perfbench is the repository benchmark. It drives the public
// AccMoS pipeline (accmos.Simulate and accmos.Sweep) on the paper's ten
// Table 1 models and checks every job's outputs against an O0 reference
// computed by an in-process engine that neither the optimizer nor the
// code generator touched.
//
// Run it from the repository root through its wrapper, which builds it
// with a build cache inside the checkout:
//
//	bash perfbench/run.sh --workload paper-run --seed 1 --seconds 20 --trace 0
//
// Workloads:
//
//	paper-run   ten models, O1 + coverage + diagnosis, binaries built in
//	            set-up, each model run at a long horizon (step loop)
//	paper-cold  the same ten models as fresh jobs at a short horizon with
//	            a new test-case seed per repetition (codegen + go build)
//	csev-sweep  CSEV, many seeds at a short horizon through Sweep with
//	            batch lanes and a warm pool of two workers (dispatch)
//
// With --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 a separate traced run times each module (slx, actors, opt,
// codegen, harness, simresult) and prints the per-layer metrics instead.
// Earlier stdout lines are a human-readable report: the host, every
// metric with its unit, and every job whose outputs did not match the
// reference. A JSON record of the run, with spans, is written under the
// output directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one benchmark invocation.
type config struct {
	root     string // repository checkout (holds models/)
	out      string // scratch directory for caches, builds and records
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	sz       sizes
}

// sizes fixes the amount of work; tiny shrinks every dimension for the
// smoke test.
type sizes struct {
	models     []string // Table 1 models of the paper workloads
	runSteps   int64    // paper-run horizon (also the probe horizon)
	coldSteps  int64    // paper-cold horizon
	sweepSeeds int      // csev-sweep lanes per sweep
	sweepSteps int64    // csev-sweep horizon
	// Set-up repetitions; setup_s is their median. paper-run's set-up
	// builds ten programs, the others load one model set and relink one.
	runSetupReps int
	setupReps    int
	minUnits     int // timed units (passes, repetitions, sweeps) at least
}

var (
	fullSizes = sizes{
		models:       table1,
		runSteps:     200_000,
		coldSteps:    2_000,
		sweepSeeds:   512,
		sweepSteps:   2_000,
		runSetupReps: 3,
		setupReps:    9,
		minUnits:     2,
	}
	tinySizes = sizes{
		models:       []string{"CSEV", "LEDLC", "SPV"},
		runSteps:     2_000,
		coldSteps:    300,
		sweepSeeds:   24,
		sweepSteps:   200,
		runSetupReps: 1,
		setupReps:    1,
		minUnits:     1,
	}
)

// workloads maps each workload to its untraced end-to-end run and its
// traced per-layer run.
var workloads = map[string]struct {
	e2e, traced func(*config) (*outcome, error)
}{
	"paper-run":  {paperRun, tracedPaperRun},
	"paper-cold": {paperCold, tracedPaperCold},
	"csev-sweep": {csevSweep, tracedCSEV},
}

// table1 lists the paper's ten benchmark models (models/<name>.xml).
var table1 = []string{"CPUT", "CSEV", "FMTM", "LANS", "LEDLC", "RAC", "SPV", "TCP", "TWC", "UTPC"}

// paperSeed is the test-case seed of the paper's default runs (the
// experiments' default); paper-run and the layer probe use it.
const paperSeed = 2024

// metric is one reported value. A metric that cannot bind on this host
// carries notMeasured instead of a number.
type metric struct {
	Value any    `json:"value"`
	Unit  string `json:"unit"`
}

const notMeasured = "not measured"

// outcome is what one workload run produced.
type outcome struct {
	metrics map[string]metric
	check   *checker
	record  map[string]any // extra detail for the JSON record file
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run parses args, runs one workload and prints the report; the last line
// written to stdout is the result object.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg     config
		seconds float64
		trace   int
		tiny    bool
	)
	fs.StringVar(&cfg.workload, "workload", "", "paper-run | paper-cold | csev-sweep")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.Float64Var(&seconds, "seconds", 25, "how long the timed region measures")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&cfg.root, "root", ".", "repository checkout holding models/")
	fs.StringVar(&cfg.out, "out", ".bench_build", "scratch directory inside the checkout")
	fs.BoolVar(&tiny, "tiny", false, "shrink every workload (smoke test)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.sz = fullSizes
	if tiny {
		cfg.sz = tinySizes
	}
	for _, name := range cfg.sz.models {
		if _, err := os.Stat(modelPath(cfg.root, name)); err != nil {
			return fmt.Errorf("model %s not found under %s: %w", name, cfg.root, err)
		}
	}
	out, err := filepath.Abs(filepath.Join(cfg.out, "perfbench"))
	if err != nil {
		return err
	}
	cfg.out = out
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}

	w, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (paper-run, paper-cold, csev-sweep)", cfg.workload)
	}
	fn := w.e2e
	if cfg.trace {
		fn = w.traced
	}
	if err := os.RemoveAll(filepath.Join(cfg.out, "builds")); err != nil {
		return err
	}
	h := hostInfo()
	fmt.Fprintf(stdout, "# host cpus=%d GOMAXPROCS=%d go=%s os=%s/%s\n", h.CPUs, h.GOMAXPROCS, h.GoVersion, runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d\n", cfg.workload, cfg.seed, seconds, trace)
	oc, err := fn(&cfg)
	if err != nil {
		return err
	}
	return report(stdout, &cfg, h, oc)
}

// report prints the human-readable lines, writes the JSON record and
// ends stdout with the result object.
func report(stdout io.Writer, cfg *config, h host, oc *outcome) error {
	names := make([]string, 0, len(oc.metrics))
	for name := range oc.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := oc.metrics[name]
		if f, ok := m.Value.(float64); ok {
			fmt.Fprintf(stdout, "# %-44s %14.6g %s\n", name, f, m.Unit)
		} else {
			fmt.Fprintf(stdout, "# %-44s %14v %s\n", name, m.Value, m.Unit)
		}
	}
	c := oc.check
	mismatches := c.report()
	for _, mm := range mismatches {
		fmt.Fprintf(stdout, "# MISMATCH %s\n", mm)
	}
	res := result{Correct: c.correct(), Attempted: c.attempted, Failed: c.failed, Metrics: oc.metrics}
	if res.Attempted == 0 {
		return errors.New("no job was checked against the reference")
	}
	rec := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(),
		"trace": cfg.trace, "host": h, "result": res, "mismatches": mismatches,
	}
	for k, v := range oc.record {
		rec[k] = v
	}
	name := fmt.Sprintf("record-%s-seed%d-trace%d.json", cfg.workload, cfg.seed, btoi(cfg.trace))
	if err := writeJSON(filepath.Join(cfg.out, name), rec); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// host identifies the machine a result was measured on.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"GOMAXPROCS"`
	GoVersion  string `json:"goVersion"`
}

func hostInfo() host {
	return host{CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
}

func modelPath(root, name string) string { return filepath.Join(root, "models", name+".xml") }

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// num makes a metric from a measured number; NaN and Inf (a ratio whose
// base was never measured) become notMeasured.
func num(v float64, unit string) metric {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return metric{Value: notMeasured, Unit: unit}
	}
	return metric{Value: v, Unit: unit}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mix derives a well-spread 64-bit value from a seed and a stream index
// (splitmix64), so repetitions and lanes get distinct, reproducible seeds.
func mix(seed, i uint64) uint64 {
	z := seed + (i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
