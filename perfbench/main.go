// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator or the lbsimd job service, checks
// every output against committed digests, and prints the metrics that
// BENCHMARK.json names as the last line of standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the line carries the end-to-end metrics, measured with
// tracing off. With --trace 1 a separate traced run takes a CPU profile
// of the process doing the work, labelled {workload, op}, folds its self
// time into the repository's layers, and reports the per-layer metrics.
// The line before it is a JSON detail record: the host descriptor,
// sample counts, tail percentiles and any failures.
//
// Workloads (the reasons each exists are in BENCHMARK.json):
//
//	nbody-slownode       fig6c at quick scale, sweep parallelism 1
//	synthetic-imbalance  fig8 at default scale, sweep parallelism 1
//	jobs-mixed           a real lbsimd child driven over loopback
//	observed-trace       traced fig9 and efficiency at default scale,
//	                     exported, aggregated and POP-reported
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runLimit bounds one run, set-up included.
const runLimit = 170 * time.Second

// childEnv marks a process the harness started as its worker, so the
// test binary can dispatch to run like the real one.
const childEnv = "PERFBENCH_CHILD"

// config is one run's settings.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	Tiny     bool // self-test size; committed digests do not apply
	Self     string
	Lbsimd   string
	// LbsimdProf is lbsimd built with lbsimd_profile.go.in, which the
	// traced jobs-mixed run profiles.
	LbsimdProf string
	// Work is this run's scratch directory; TraceDir keeps the traced
	// run's profile and spans for inspection.
	Work     string
	TraceDir string
	// Digests maps "<workload>/seed=<n>/<artifact>" and
	// "jobs/<spec>" to the committed output digests.
	Digests map[string]string
}

// args renders the settings a child process needs.
func (c config) args() []string {
	a := []string{
		"-workload", c.Workload,
		"-seed", strconv.FormatInt(c.Seed, 10),
		"-seconds", strconv.FormatFloat(c.Seconds, 'g', -1, 64),
		"-work", c.Work,
		"-tracedir", c.TraceDir,
	}
	if c.Trace {
		a = append(a, "-trace", "1")
	}
	if c.Tiny {
		a = append(a, "-size", "tiny")
	}
	return a
}

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// outcome is what a workload run produced.
type outcome struct {
	Attempted int
	Failed    int
	Failures  []string
	Metrics   map[string]float64
	Detail    map[string]any
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Detail: map[string]any{}}
}

// fail records one failed operation; the first few reasons are kept for
// the detail record.
func (o *outcome) fail(err error) {
	o.Failed++
	if len(o.Failures) < 10 {
		o.Failures = append(o.Failures, err.Error())
	}
}

// checker compares outputs: against the committed digest where one
// exists, otherwise against the first value the run produced under the
// same key, so every repetition of a seed must agree.
type checker struct {
	committed map[string]string
	prefix    string
	seen      map[string]string
}

func newChecker(committed map[string]string, prefix string) *checker {
	return &checker{committed: committed, prefix: prefix, seen: map[string]string{}}
}

func (c *checker) check(key, got string) error {
	if want, ok := c.committed[c.prefix+key]; ok {
		if got != want {
			return fmt.Errorf("%s%s: got %s, committed %s", c.prefix, key, got, want)
		}
		return nil
	}
	if want, ok := c.seen[key]; ok && got != want {
		return fmt.Errorf("%s%s: got %s, earlier in this run %s", c.prefix, key, got, want)
	}
	c.seen[key] = got
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name from BENCHMARK.json")
		seed     = fs.Int64("seed", 1, "seed the workload's inputs are generated from")
		secs     = fs.Float64("seconds", 10, "how long to measure")
		trace    = fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
		size     = fs.String("size", "full", "full, or tiny for the self-test")
		lbsimd   = fs.String("lbsimd", ".bench_build/lbsimd", "lbsimd binary for jobs-mixed")
		lbsimdP  = fs.String("lbsimd-prof", ".bench_build/lbsimd-prof", "lbsimd built with lbsimd_profile.go.in, for the traced jobs-mixed run")
		role     = fs.String("role", "harness", "harness, or worker for a figure workload's repetition")
		mode     = fs.String("mode", "cold", "worker: cold, checkpoint (cold under job hooks, then checkpoint), hit (resume from the checkpoints) or probe (set-up only)")
		tag      = fs.String("tag", "0", "worker: names the traced profile and spans")
		work     = fs.String("work", "", "scratch directory (default .bench_build/run-<pid>)")
		traceDir = fs.String("tracedir", ".bench_build/trace", "where a traced run leaves its profile and spans")
		genOut   = fs.String("gen-digests", "", "recompute the committed digests for seeds 0..N-1 (N from -seed) into this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *size != "full" && *size != "tiny" {
		return fmt.Errorf("-size must be full or tiny, got %q", *size)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cfg := config{
		Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace == 1,
		Tiny: *size == "tiny", Self: self, Lbsimd: *lbsimd, LbsimdProf: *lbsimdP, Work: *work, TraceDir: *traceDir,
	}
	switch *role {
	case "worker":
		return worker(cfg, *mode, *tag, stdout)
	case "harness":
	default:
		return fmt.Errorf("unknown role %q", *role)
	}

	bench, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	if *genOut != "" {
		return generateDigests(context.Background(), cfg, int(*seed), *genOut, stderr)
	}
	if !cfg.Tiny {
		if cfg.Digests, err = loadDigests(filepath.Join("perfbench", "digests.json")); err != nil {
			return err
		}
	}
	// A run must end within three minutes, and an interrupted run stops
	// too; whatever it started is killed then.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runLimit)
	defer cancel()
	o, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	return report(bench, cfg, o, stdout)
}

// runWorkload runs one workload in a fresh scratch directory and
// removes the directory afterwards.
func runWorkload(ctx context.Context, cfg config) (*outcome, error) {
	_, isFigure := figureLoads[cfg.Workload]
	if !isFigure && cfg.Workload != "jobs-mixed" {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Seconds <= 0 || math.IsNaN(cfg.Seconds) {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if cfg.Work == "" {
		cfg.Work = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	}
	var err error
	if cfg.Work, err = filepath.Abs(cfg.Work); err != nil {
		return nil, err
	}
	if cfg.TraceDir, err = filepath.Abs(cfg.TraceDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.Work)
	if cfg.Trace {
		// A traced run replaces the previous one's profiles and spans.
		old, _ := filepath.Glob(filepath.Join(cfg.TraceDir, cfg.Workload+".*"))
		for _, f := range old {
			os.Remove(f)
		}
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
			return nil, err
		}
	}
	if isFigure {
		return runFigures(ctx, cfg)
	}
	return runJobs(ctx, cfg)
}

// report prints the detail record and then the result line with the
// metrics of this run's mode, each with the unit BENCHMARK.json gives.
// A named end-to-end metric the run did not produce is an error; a
// per-layer metric the workload does not exercise reads 0.
func report(bench *benchmarkFile, cfg config, o *outcome, stdout io.Writer) error {
	specs := bench.EndToEnd
	if cfg.Trace {
		specs = bench.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for _, m := range specs {
		v, ok := o.Metrics[m.Name]
		if !ok && !cfg.Trace {
			missing = append(missing, m.Name)
			continue
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
		metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("workload %s produced no %s", cfg.Workload, strings.Join(missing, ", "))
	}
	o.Detail["workload"] = cfg.Workload
	o.Detail["seed"] = cfg.Seed
	o.Detail["failures"] = o.Failures
	detail, err := json.Marshal(o.Detail)
	if err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Failed == 0 && o.Attempted > 0, o.Attempted, o.Failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	return err
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(b.EndToEnd) == 0 || len(b.PerLayer) == 0 {
		return nil, errors.New(path + ": no metrics")
	}
	return &b, nil
}

func loadDigests(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}
