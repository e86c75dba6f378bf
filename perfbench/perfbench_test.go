package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// harness re-executes itself as its figure workers and marks those
// children with childEnv.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tinyConfig is a one-second run of a workload at the self-test size.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	lbsimd := buildLbsimd(t)
	return config{
		Workload: workload, Seed: 1, Seconds: 1, Trace: trace, Tiny: true,
		Self: self, Lbsimd: lbsimd, LbsimdProf: lbsimd + "-prof", Work: t.TempDir(), TraceDir: t.TempDir(),
	}
}

var lbsimdPath string

func buildLbsimd(t *testing.T) string {
	t.Helper()
	if lbsimdPath != "" {
		return lbsimdPath
	}
	dir, err := os.MkdirTemp("", "perfbench-lbsimd")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lbsimd")
	if out, err := exec.Command("go", "build", "-o", path, "ompsscluster/cmd/lbsimd").CombinedOutput(); err != nil {
		t.Fatalf("building lbsimd: %v\n%s", err, out)
	}
	// The profiling build, as run.sh makes it.
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	overlay := filepath.Join(dir, "overlay.json")
	data, err := json.Marshal(map[string]map[string]string{"Replace": {
		filepath.Join(root, "cmd", "lbsimd", "zz_perfbench_profile.go"): filepath.Join(root, "perfbench", "lbsimd_profile.go.in"),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(overlay, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := exec.Command("go", "build", "-overlay", overlay, "-o", path+"-prof", "ompsscluster/cmd/lbsimd").CombinedOutput(); err != nil {
		t.Fatalf("building the profiling lbsimd: %v\n%s", err, out)
	}
	lbsimdPath = path
	return path
}

type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs a workload and returns its outcome and parsed result
// line.
func runTiny(t *testing.T, bench *benchmarkFile, cfg config) (*outcome, resultLine) {
	t.Helper()
	o, err := runWorkload(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	var buf bytes.Buffer
	if err := report(bench, cfg, o, &buf); err != nil {
		t.Fatalf("%s trace=%v: %v", cfg.Workload, cfg.Trace, err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.Workload, err)
	}
	return o, res
}

// TestEveryMetricEmitted runs every workload of BENCHMARK.json at the
// tiny size in both modes and checks that each named metric is printed
// with its unit, that every per-layer metric is measured (not defaulted)
// on at least one workload, and that layers.json maps exactly the
// per-layer metrics.
func TestEveryMetricEmitted(t *testing.T) {
	bench, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	measured := map[string]bool{}
	for _, w := range bench.Workloads {
		for _, trace := range []bool{false, true} {
			o, res := runTiny(t, bench, tinyConfig(t, w.Name, trace))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					w.Name, trace, res.Correct, res.Attempted, res.Failed, o.Failures)
			}
			specs := bench.EndToEnd
			if trace {
				specs = bench.PerLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.Name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want a value in %s", w.Name, trace, m.Name, got, m.Unit)
				}
				if _, ok := o.Metrics[m.Name]; ok {
					measured[m.Name] = true
				}
			}
		}
	}
	for _, m := range bench.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured on no workload", m.Name)
		}
	}

	data, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer map[string]struct {
			Moves []string `json:"moves"`
			On    []string `json:"on"`
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, workloads := map[string]bool{}, map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	for _, w := range bench.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range bench.PerLayer {
		entry, ok := doc.PerLayer[m.Name]
		if !ok {
			t.Errorf("layers.json does not map %s", m.Name)
		}
		for _, e := range entry.Moves {
			if !e2e[e] {
				t.Errorf("layers.json: %s moves unknown metric %s", m.Name, e)
			}
		}
		for _, w := range entry.On {
			if !workloads[w] {
				t.Errorf("layers.json: %s names unknown workload %s", m.Name, w)
			}
		}
	}
	if len(doc.PerLayer) != len(bench.PerLayer) {
		t.Errorf("layers.json maps %d metrics, BENCHMARK.json names %d", len(doc.PerLayer), len(bench.PerLayer))
	}
}

// TestWrongDigestCounted checks that a committed digest or count that
// does not match is a failed operation, never skipped.
func TestWrongDigestCounted(t *testing.T) {
	bench, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	firstJob, _ := newJobSeq(1).cold()
	for _, tc := range []struct{ workload, key string }{
		{"nbody-slownode", "nbody-slownode/seed=1/fig6c.csv"},
		{"nbody-slownode", "nbody-slownode/seed=1/count.simtime.events"},
		{"observed-trace", "observed-trace/seed=1/fig9.chrome"},
		{"jobs-mixed", "jobs/" + firstJob},
	} {
		cfg := tinyConfig(t, tc.workload, false)
		cfg.Digests = map[string]string{tc.key: "0"}
		o, res := runTiny(t, bench, cfg)
		if res.Failed == 0 || res.Correct {
			t.Errorf("wrong %s: failed=%d correct=%v, want a failure", tc.key, res.Failed, res.Correct)
		}
		if ok := res.Metrics["ok_frac"].Value; ok == nil || *ok >= 1 {
			t.Errorf("wrong %s: ok_frac %v, want below 1", tc.key, ok)
		}
		if len(o.Failures) == 0 || !strings.Contains(o.Failures[0], tc.key) {
			t.Errorf("wrong %s: failures %q do not name it", tc.key, o.Failures)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n    int
		want string
	}{{19, "max"}, {20, "p50"}, {40, "p75"}, {99, "p75"}, {100, "p90"}, {1000, "p90"}} {
		s := make([]float64, tc.n)
		for i := range s {
			s[i] = xs[i%len(xs)]
		}
		if _, got := tail(s); got != tc.want {
			t.Errorf("tail of %d samples at %s, want %s", tc.n, got, tc.want)
		}
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, tc := range []struct {
		stack []string
		want  string
	}{
		{[]string{"ompsscluster/internal/simtime.(*Env).heapPop"}, "simtime"},
		{[]string{"ompsscluster/internal/sweep.Map[go.shape.struct { a int }.b,int]"}, "experiments"},
		{[]string{"ompsscluster/internal/flow.(*Graph).MaxFlow"}, "solver"},
		{[]string{"ompsscluster/internal/workloads/synthetic.(*Bench).Run.func1"}, "workloads"},
		{[]string{"ompsscluster/internal/trace.(*Recorder).Add"}, "obs"},
		{[]string{"ompsscluster/internal/cluster.(*Machine).Clone"}, "other"},
		{[]string{"runtime.mallocgc", "ompsscluster/internal/core.(*worker).start"}, "go-runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKeySmall"}, "go-runtime"},
		{[]string{"internal/runtime/syscall.Syscall6", "os.(*File).Write", "ompsscluster/internal/jobs.writeFileAtomic"}, "jobs"},
		{[]string{"strconv.AppendFloat", "ompsscluster/internal/obs.ts", "ompsscluster/internal/obs.WriteChrome"}, "obs"},
		{[]string{"encoding/json.(*encodeState).marshal", "net/http.(*conn).serve"}, "other"},
		{[]string{"ompsscluster/internal/experiments.mapSpecs[go.shape.float64].func2"}, "experiments"},
	} {
		if got := layerOfStack(tc.stack); got != tc.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	out := `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
        op:  cold fig6c
  workload:  nbody-slownode
      20ms   ompsscluster/internal/nbody.(*Tree).force
             ompsscluster/internal/experiments.mapSpecs[go.shape.struct { a int }].func2 (inline)
-----------+-------------------------------------------------------
     1.50s   runtime.scanobject
             runtime.gcDrain
-----------+-------------------------------------------------------
`
	ss, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(ss) != 2 {
		t.Fatalf("%d samples, want 2", len(ss))
	}
	if ss[0].nanos != 20e6 || ss[0].labels["op"] != "cold fig6c" || ss[0].labels["workload"] != "nbody-slownode" ||
		len(ss[0].stack) != 2 || layerOfStack(ss[0].stack) != "nbody" {
		t.Errorf("first sample %+v", ss[0])
	}
	if ss[1].nanos != 1.5e9 || len(ss[1].labels) != 0 || layerOfStack(ss[1].stack) != "go-runtime" {
		t.Errorf("second sample %+v", ss[1])
	}
	shares, byOp := foldLayers(ss)
	if got := shares["nbody.self_share"]; got < 0.0131 || got > 0.0132 {
		t.Errorf("nbody share %v, want 20ms of 1.52s", got)
	}
	if byOp["cold fig6c"] != 0.02 {
		t.Errorf("op seconds %v", byOp)
	}
}

// TestProcCPU checks that a process's CPU time read from /proc agrees
// with what getrusage reports for it, to /proc's 10 ms ticks.
func TestProcCPU(t *testing.T) {
	x := 0.0
	for start := selfCPU(); selfCPU().sub(start).User < 200*time.Millisecond; {
		for i := 0; i < 1e6; i++ {
			x += float64(i)
		}
	}
	self := selfCPU()
	proc, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := self.total() - proc.total(); d < -10*time.Millisecond || d > 30*time.Millisecond {
		t.Errorf("getrusage %v, /proc %v (x=%v)", self, proc, x)
	}
	if proc.User < 200*time.Millisecond {
		t.Errorf("/proc user time %v after 200ms of user work", proc.User)
	}
}
