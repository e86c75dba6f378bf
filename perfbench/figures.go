package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"ompsscluster/internal/expander"
	"ompsscluster/internal/experiments"
	"ompsscluster/internal/jobs"
	"ompsscluster/internal/obs"
	"ompsscluster/internal/simtime"
)

// figureLoad is an in-process figure workload: the figures computed
// cold through experiments.ByID on every repetition and, for
// observed-trace, the figures whose traced variants are recorded,
// exported, aggregated and POP-reported first. twin names the traced
// figure whose traced variant runs the same configurations as the
// figure itself, so the two times give the recording overhead.
type figureLoad struct {
	scale  func(tiny bool) experiments.Scale
	figs   []string
	traced []string
	twin   string
}

var figureLoads = map[string]figureLoad{
	"nbody-slownode":      {scale: quickScale, figs: []string{"fig6c"}},
	"synthetic-imbalance": {scale: defaultScale, figs: []string{"fig8"}},
	"observed-trace": {scale: defaultScale, figs: []string{"fig9", "efficiency"},
		traced: []string{"fig9", "efficiency"}, twin: "fig9"},
}

func quickScale(tiny bool) experiments.Scale {
	if tiny {
		return tinyScale()
	}
	return experiments.QuickScale()
}

func defaultScale(tiny bool) experiments.Scale {
	if tiny {
		return tinyScale()
	}
	return experiments.DefaultScale()
}

// tinyScale is the self-test size: every figure of every workload in
// about a second.
func tinyScale() experiments.Scale {
	sc := experiments.QuickScale()
	sc.CoresPerNode = 8
	sc.TasksPerCore = 4
	sc.Iterations = 1
	sc.MaxNodes = 4
	return sc
}

// hitWorkersPerRep hit workers follow every cold repetition, each
// resuming the figures from the checkpoints hitJobs times. A warm
// resume takes well under a millisecond, and its time moves by up to a
// factor of two with the host's state from one moment to the next, so
// the hits are spread over the run as the cold repetitions are.
const (
	hitWorkersPerRep = 3
	hitJobs          = 20
)

// hitWarmup resumes run unmeasured first, so the hits are timed in a
// warm process, as a long-running lbsimd resumes a job.
const hitWarmup = 3

// figureSetupProbes is how many extra workers a figure run starts only to
// time their set-up, as the jobs-mixed run starts lbsimd; setup_s is
// the median over them and every other worker.
const figureSetupProbes = 20

// op is one call the worker made into the program.
type op struct {
	Name    string  `json:"name"`
	Kind    string  `json:"kind"` // cold, hit, record, export, metrics, pop
	Seconds float64 `json:"seconds"`
	CPU     float64 `json:"cpu_s"`
	Digest  string  `json:"digest,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// rep is one repetition of the workload's cold operations.
type rep struct {
	Traced  bool              `json:"traced"`
	Seconds float64           `json:"seconds"`
	CPU     float64           `json:"cpu_s"`
	Ops     []op              `json:"ops"`
	SpecMs  []float64         `json:"spec_ms"`
	Counts  map[string]uint64 `json:"counts"`
	Runtime runtimeSample     `json:"runtime"`
	// Headline is the first figure's headline simulated comparison.
	Headline float64 `json:"headline"`
}

// workerReport is what a figure worker prints when it finishes: the
// repetition of a cold worker or the ops of the hit worker.
type workerReport struct {
	GOGC    string `json:"gogc"`
	Rep     rep    `json:"rep"`
	Hits    []op   `json:"hits"`
	Profile string `json:"profile,omitempty"`
	Spans   string `json:"spans,omitempty"`
}

// worker is the process that runs one repetition of a figure
// workload. Every repetition gets a fresh process, as every lbsim
// invocation does. It prints "ready" the moment before its first
// operation, so the harness can time set-up, then one JSON report line.
// In probe mode it stops there, having only been started to time that.
//
// A measured repetition calls experiments.ByID as lbsim does, with no
// job hooks. In checkpoint mode the repetition runs under the job hooks
// lbsimd installs and then checkpoints each figure's spec outcomes the
// way lbsimd does; in hit mode the worker instead resumes the figures
// from those checkpoints hitJobs times, each as a restarted lbsimd job
// with every spec done. With cfg.Trace the repetition runs under a CPU profile and
// hooks that time each spec, and the spans are written out at the end;
// tag names those files.
func worker(cfg config, mode, tag string, stdout io.Writer) error {
	gogc := gcPercentForFigures()
	load, ok := figureLoads[cfg.Workload]
	if !ok {
		return fmt.Errorf("no figure workload %q", cfg.Workload)
	}
	base := load.scale(cfg.Tiny)
	base.Seed = cfg.Seed
	base.Parallel = 1
	fmt.Fprintln(stdout, "ready")

	w := &figureWorker{cfg: cfg, tag: tag, load: load, base: base, tr: newTracer()}
	report := workerReport{GOGC: gogc}
	if mode == "probe" {
		return json.NewEncoder(stdout).Encode(report)
	}
	if mode == "hit" {
		for i := -hitWarmup; i < hitJobs; i++ {
			if o := w.resume(); i >= 0 {
				report.Hits = append(report.Hits, o)
			}
		}
		return json.NewEncoder(stdout).Encode(report)
	}
	stopProfile := func() error { return nil }
	if cfg.Trace {
		report.Profile = filepath.Join(cfg.TraceDir, fmt.Sprintf("%s.%s.cpu.pprof", cfg.Workload, tag))
		var err error
		if stopProfile, err = startProfile(report.Profile); err != nil {
			return err
		}
	}
	var err error
	if report.Rep, err = w.rep(cfg.Trace, cfg.Trace || mode == "checkpoint"); err != nil {
		return err
	}
	if err := stopProfile(); err != nil {
		return err
	}
	if cfg.Trace {
		report.Spans = filepath.Join(cfg.TraceDir, fmt.Sprintf("%s.%s.spans.json", cfg.Workload, tag))
		if err := w.tr.writeChrome(report.Spans); err != nil {
			return err
		}
	}
	for id, enc := range w.recorded {
		if mode != "checkpoint" {
			break
		}
		ckpt := jobs.OpenCheckpoint(w.checkpoint(id))
		for idx, b := range enc {
			ckpt.Record(idx, b)
		}
		// Record keeps going when a flush fails; the file is what the
		// hit workers read, so check it.
		if n := jobs.OpenCheckpoint(w.checkpoint(id)).Len(); n != len(enc) {
			return fmt.Errorf("checkpoint of %s holds %d of %d specs", id, n, len(enc))
		}
	}
	return json.NewEncoder(stdout).Encode(report)
}

func startProfile(path string) (func() error, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

type figureWorker struct {
	cfg  config
	tag  string
	load figureLoad
	base experiments.Scale
	tr   *tracer
	// recorded holds each figure's spec outcomes from the repetition,
	// which are checkpointed for the hit workers.
	recorded map[string]map[int][]byte
}

func (w *figureWorker) checkpoint(id string) string {
	return filepath.Join(w.cfg.Work, id+".ckpt.json")
}

func (w *figureWorker) chromePath(id string) string {
	return filepath.Join(w.cfg.Work, fmt.Sprintf("%s.%s.chrome.json", id, w.tag))
}

// scale returns a fresh per-operation Scale: a new graph store and
// engine collector, as every lbsim invocation and lbsimd job gets.
func (w *figureWorker) scale() experiments.Scale {
	sc := w.base
	sc.Graphs = expander.NewStore("")
	sc.Engine = simtime.NewStatsCollector()
	return sc
}

// call runs fn as one labelled, traced operation.
func (w *figureWorker) call(name, kind string, fn func(span int) (string, error)) op {
	o := op{Name: name, Kind: kind}
	cpu := selfCPU()
	id := w.tr.begin(kind+" "+name, -1)
	pprof.Do(context.Background(), pprof.Labels("workload", w.cfg.Workload, "op", kind+" "+name), func(context.Context) {
		d, err := fn(id)
		o.Digest = d
		if err != nil {
			o.Err = err.Error()
		}
	})
	o.Seconds = w.tr.end(id).Seconds()
	o.CPU = selfCPU().sub(cpu).total().Seconds()
	return o
}

// rep runs the workload's operations once. With hooks each spec is
// timed and its outcome kept for the checkpoint.
func (w *figureWorker) rep(traced, hooks bool) (rep, error) {
	r := rep{Traced: traced, Counts: map[string]uint64{}}
	w.recorded = map[string]map[int][]byte{}
	before := readRuntime()
	cpu := selfCPU()
	start := time.Now()
	for i, id := range w.load.figs {
		enc := map[int][]byte{}
		var mu sync.Mutex
		var specDur map[int]time.Duration
		var res *experiments.Result
		o := w.call(id, "cold", func(parent int) (string, error) {
			specSpan := map[int]int{}
			specDur = map[int]time.Duration{}
			sc := w.scale()
			if hooks {
				sc.Jobs = &experiments.JobHooks{
					// A miss on every spec: Cached marks its start,
					// Done its end and keeps the outcome for the
					// checkpoint.
					Cached: func(idx int) ([]byte, bool) {
						mu.Lock()
						specSpan[idx] = w.tr.begin(fmt.Sprintf("spec %d", idx), parent)
						mu.Unlock()
						return nil, false
					},
					Done: func(idx int, b []byte) {
						mu.Lock()
						defer mu.Unlock()
						if s, ok := specSpan[idx]; ok {
							specDur[idx] = w.tr.end(s)
						}
						enc[idx] = append([]byte(nil), b...)
					},
				}
			}
			var err error
			if res, err = experiments.ByID(id, sc); err != nil {
				return "", err
			}
			if res.Err != nil {
				return digest([]byte(res.CSV())), fmt.Errorf("%s: %v", id, res.Err)
			}
			return digest([]byte(res.CSV())), nil
		})
		r.Ops = append(r.Ops, o)
		w.recorded[id] = enc
		for _, d := range specDur {
			r.SpecMs = append(r.SpecMs, d.Seconds()*1e3)
		}
		if res != nil {
			e := res.Engine
			r.Counts["simtime.events"] += e.Events
			r.Counts["simtime.heap_pushes"] += e.HeapPushes
			r.Counts["simtime.fast_path"] += e.FastPath
			r.Counts["simtime.parks"] += e.Parks
			r.Counts["nanos.registry_hiwater"] = max(r.Counts["nanos.registry_hiwater"], e.RegistryHiWater)
			if hooks {
				r.Counts["sweep.specs"] += uint64(len(specDur))
			}
			if i == 0 {
				r.Headline = headline(res)
			}
		}
	}
	// The traced variants run after the figures, so the figures are
	// timed on a heap the traces have not grown.
	for _, id := range w.load.traced {
		if err := w.observe(id, &r); err != nil {
			return r, err
		}
	}
	r.Seconds = time.Since(start).Seconds()
	r.CPU = selfCPU().sub(cpu).total().Seconds()
	r.Runtime = readRuntime().sub(before)
	return r, nil
}

// observe runs the traced variant of one figure and everything a user
// does with it: the Chrome export, the metrics JSON and the POP
// reports. The export is left in the run's directory for the harness
// to validate and hash, so neither is timed nor counted in this
// process's memory.
func (w *figureWorker) observe(id string, r *rep) error {
	var bundles []experiments.TraceBundle
	r.Ops = append(r.Ops, w.call(id, "record", func(int) (string, error) {
		var err error
		bundles, err = experiments.TraceBundles(id, w.scale())
		return "", err
	}))
	if bundles == nil {
		return nil
	}
	recs := make([]*obs.Recorder, len(bundles))
	labels := make([]string, len(bundles))
	for i, b := range bundles {
		recs[i], labels[i] = b.Obs, b.Label
		for k := obs.Kind(0); k <= obs.KindPOPWindow; k++ {
			r.Counts["obs.events"] += b.Obs.Count(k)
		}
		r.Counts["obs.dropped"] += b.Obs.Dropped()
	}

	path := w.chromePath(id)
	export := w.call(id, "export", func(int) (string, error) {
		f, err := os.Create(path)
		if err != nil {
			return "", err
		}
		bw := bufio.NewWriter(f)
		if err := obs.WriteChrome(bw, recs, labels); err != nil {
			f.Close()
			return "", err
		}
		if err := bw.Flush(); err != nil {
			f.Close()
			return "", err
		}
		return "", f.Close()
	})
	r.Ops = append(r.Ops, export)

	r.Ops = append(r.Ops, w.call(id, "metrics", func(int) (string, error) {
		m, err := experiments.BuildMetrics(bundles)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		if err := m.WriteJSON(&buf); err != nil {
			return "", err
		}
		return digest(buf.Bytes()), nil
	}))
	r.Ops = append(r.Ops, w.call(id, "pop", func(int) (string, error) {
		reps, err := experiments.POPReports(id, w.scale())
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		for _, p := range reps {
			fmt.Fprintf(&buf, "%s\n", p.Label)
			if err := p.Report.WriteJSON(&buf); err != nil {
				return "", err
			}
		}
		return digest(buf.Bytes()), nil
	}))
	return nil
}

// resume computes the figures with every spec served from its
// checkpoint. The op's digest joins the figures' CSV digests, which
// must equal the cold ones.
func (w *figureWorker) resume() op {
	return w.call(strings.Join(w.load.figs, "+"), "hit", func(int) (string, error) {
		var ds []string
		for _, id := range w.load.figs {
			ckpt := jobs.OpenCheckpoint(w.checkpoint(id))
			missed := 0
			sc := w.scale()
			sc.Jobs = &experiments.JobHooks{Cached: func(idx int) ([]byte, bool) {
				b, ok := ckpt.Cached(idx)
				if !ok {
					missed++
				}
				return b, ok
			}}
			res, err := experiments.ByID(id, sc)
			if err != nil {
				return "", err
			}
			if missed > 0 {
				return "", fmt.Errorf("%s: %d specs missing from the checkpoint", id, missed)
			}
			ds = append(ds, digest([]byte(res.CSV())))
		}
		return strings.Join(ds, "+"), nil
	})
}

// headline is a figure's headline simulated comparison, the number
// EXPERIMENTS.md sets beside the paper's (see paperHeadline).
func headline(res *experiments.Result) float64 {
	at := func(label string, x float64) float64 {
		if s := res.Get(label); s != nil {
			if y, ok := s.Lookup(x); ok {
				return y
			}
		}
		return 0
	}
	last := func(label string) float64 {
		if s := res.Get(label); s != nil && len(s.Points) > 0 {
			return s.Points[len(s.Points)-1].X
		}
		return 0
	}
	switch res.ID {
	case "fig6c":
		// Degree 3 beyond DLB, as a share of the baseline, at the
		// largest node count (paper: -20%).
		n := last("degree 3")
		if b := at("baseline", n); b != 0 {
			return (at("degree 3", n) - at("dlb (degree 1)", n)) / b
		}
	case "fig8":
		// Degree 4 over perfect at imbalance 2.0 on the largest node
		// subplot (paper: within 20%).
		for _, n := range []string{"64n", "32n", "16n", "8n", "4n", "2n"} {
			if p := at(n+" perfect", 2); p != 0 {
				return at(n+" degree 4", 2)/p - 1
			}
		}
	case "fig9":
		// DROM only, as a share of the baseline (paper: 65%).
		if b := at("baseline", 0); b != 0 {
			return at("drom-only", 2) / b
		}
	}
	return 0
}

// paperHeadline is the paper's value for each headline, from
// EXPERIMENTS.md.
var paperHeadline = map[string]float64{"fig6c": -0.20, "fig8": 0.20, "fig9": 0.65}

// runWorker starts a worker process and returns its set-up time (from
// start until it reports ready), its report and its peak RSS in MB.
// mode is "cold", "checkpoint" or "hit".
func runWorker(ctx context.Context, cfg config, mode, tag string) (setup time.Duration, report *workerReport, rss float64, err error) {
	args := append([]string{"-role", "worker", "-mode", mode, "-tag", tag}, cfg.args()...)
	cmd := exec.CommandContext(ctx, cfg.Self, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return 0, nil, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, nil, 0, err
	}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	setup = time.Since(start)
	if err == nil && line != "ready\n" {
		err = fmt.Errorf("worker handshake: got %q", line)
	}
	if err == nil {
		report = &workerReport{}
		err = json.NewDecoder(br).Decode(report)
	}
	io.Copy(io.Discard, br)
	if werr := cmd.Wait(); werr != nil && err == nil {
		err = fmt.Errorf("worker: %w", werr)
	}
	if err != nil {
		return 0, nil, 0, err
	}
	rss = float64(cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024
	return setup, report, rss, nil
}

// artifact names the output an operation's digest covers.
func artifact(o op) string {
	switch o.Kind {
	case "cold":
		return o.Name + ".csv"
	case "export":
		return o.Name + ".chrome"
	}
	return o.Name + "." + o.Kind
}

// checkExports validates and hashes the Chrome traces a worker left in
// the run's directory, records their digests and sizes on the
// repetition, and deletes them.
func checkExports(cfg config, tag string, r *rep) error {
	for i := range r.Ops {
		p := &r.Ops[i]
		if p.Kind != "export" || p.Err != "" {
			continue
		}
		path := filepath.Join(cfg.Work, fmt.Sprintf("%s.%s.chrome.json", p.Name, tag))
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		os.Remove(path)
		r.Counts["obs.trace_bytes"] += uint64(len(data))
		p.Digest = digest(data)
		if err := obs.ValidateChrome(data); err != nil {
			p.Err = err.Error()
		}
	}
	return nil
}

// runFigures runs a figure workload, one worker process per repetition.
// The first worker is not measured: in an untraced run it writes the
// checkpoints the hit workers resume from, and in a traced run it is
// the untraced twin the tracing overhead is measured against. Measured
// repetitions follow for as long as another fits in the run's seconds,
// plain in an untraced run and traced in a traced one. In an untraced
// run every worker is followed by hit workers, and figureSetupProbes
// probe workers come first; setup_s is the median set-up of all those
// processes. Every worker's outputs are checked.
func runFigures(ctx context.Context, cfg config) (*outcome, error) {
	var setups []float64
	var checked, untraced, traced []*workerReport
	var hitOps []op
	var rss []float64
	for i := 0; i < figureSetupProbes && !cfg.Trace; i++ {
		d, _, _, err := runWorker(ctx, cfg, "probe", "probe")
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	start := time.Now()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	for i := 0; ; i++ {
		c := cfg
		c.Trace = cfg.Trace && i > 0
		mode := "cold"
		if i == 0 && !cfg.Trace {
			mode = "checkpoint"
		}
		t0 := time.Now()
		d, wr, peak, err := runWorker(ctx, c, mode, strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		if err := checkExports(c, strconv.Itoa(i), &wr.Rep); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		checked = append(checked, wr)
		switch {
		case i == 0 && cfg.Trace:
			untraced = append(untraced, wr)
		case c.Trace:
			traced = append(traced, wr)
		case i > 0:
			untraced = append(untraced, wr)
			rss = append(rss, peak)
		}
		for h := 0; h < hitWorkersPerRep && !cfg.Trace; h++ {
			d, wr, _, err := runWorker(ctx, cfg, "hit", "hit")
			if err != nil {
				return nil, err
			}
			setups = append(setups, d.Seconds())
			hitOps = append(hitOps, wr.Hits...)
		}
		if i > 0 && time.Since(start)+time.Since(t0) > budget {
			break
		}
	}

	o := newOutcome()
	chk := newChecker(cfg.Digests, fmt.Sprintf("%s/seed=%d/", cfg.Workload, cfg.Seed))
	var cold, hits, hitCPU []float64
	for _, wr := range checked {
		r := wr.Rep
		// Deterministic counters must repeat exactly; a mismatch fails
		// the repetition's first operation.
		names := make([]string, 0, len(r.Counts))
		for k := range r.Counts {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if err := chk.check("count."+k, strconv.FormatUint(r.Counts[k], 10)); err != nil && r.Ops[0].Err == "" {
				r.Ops[0].Err = err.Error()
			}
		}
		var coldDigests []string
		for _, p := range r.Ops {
			o.Attempted++
			switch {
			case p.Err != "":
				o.fail(fmt.Errorf("%s %s: %s", p.Kind, p.Name, p.Err))
			case p.Digest != "":
				if err := chk.check(artifact(p), p.Digest); err != nil {
					o.fail(err)
				}
			}
			if p.Kind == "cold" {
				coldDigests = append(coldDigests, p.Digest)
			}
		}
		if err := chk.check("resume", strings.Join(coldDigests, "+")); err != nil {
			o.fail(err)
		}
	}
	for _, p := range hitOps {
		o.Attempted++
		if p.Err != "" {
			o.fail(fmt.Errorf("hit %s: %s", p.Name, p.Err))
		} else if err := chk.check("resume", p.Digest); err != nil {
			o.fail(err)
		}
		hits = append(hits, p.Seconds*1e3)
		hitCPU = append(hitCPU, p.CPU*1e3)
	}

	m := o.Metrics
	var repSeconds, repCPU, coldCPU []float64
	for _, wr := range untraced {
		repSeconds = append(repSeconds, wr.Rep.Seconds)
		repCPU = append(repCPU, wr.Rep.CPU)
		coldMs, cpuMs := 0.0, 0.0
		for _, p := range wr.Rep.Ops {
			if p.Kind == "cold" {
				coldMs += p.Seconds * 1e3
				cpuMs += p.CPU * 1e3
			}
		}
		cold = append(cold, coldMs)
		coldCPU = append(coldCPU, cpuMs)
	}
	m["setup_s"] = median(setups)
	m["run_cpu_s"] = median(repCPU)
	m["peak_rss_mb"] = peakRSS(rss)
	m["ok_frac"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
	m["cold_job_cpu_ms"], m["hit_job_cpu_ms"] = median(coldCPU), median(hitCPU)
	o.Detail["host"] = describeHost(untraced[0].GOGC)
	o.Detail["setup_s"] = summarize(setups)
	o.Detail["run_s"] = summarize(repSeconds)
	o.Detail["run_cpu_s"] = summarize(repCPU)
	o.Detail["peak_rss_mb"] = summarize(rss)
	o.Detail["cold_job_ms"] = summarize(cold)
	o.Detail["cold_job_cpu_ms"] = summarize(coldCPU)
	o.Detail["hit_job_ms"] = summarize(hits)
	o.Detail["hit_job_cpu_ms"] = summarize(hitCPU)

	if len(traced) > 0 {
		if err := tracedMetrics(cfg, untraced, traced, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// tracedMetrics fills the per-layer metrics of a traced figure run from
// the traced repetitions, their CPU profiles and the untraced twin.
func tracedMetrics(cfg config, untraced, traced []*workerReport, o *outcome) error {
	m := o.Metrics
	load := figureLoads[cfg.Workload]
	perRep := func(f func(r rep) float64) float64 {
		var xs []float64
		for _, wr := range traced {
			xs = append(xs, f(wr.Rep))
		}
		return median(xs)
	}
	sumOps := func(r rep, kind, name string) float64 {
		s := 0.0
		for _, p := range r.Ops {
			if p.Kind == kind && (name == "" || p.Name == name) {
				s += p.Seconds
			}
		}
		return s
	}
	c := traced[0].Rep.Counts
	m["simtime.events"] = float64(c["simtime.events"])
	m["simtime.heap_pushes"] = float64(c["simtime.heap_pushes"])
	m["simtime.parks"] = float64(c["simtime.parks"])
	if c["simtime.events"] > 0 {
		m["simtime.fast_path_frac"] = float64(c["simtime.fast_path"]) / float64(c["simtime.events"])
		m["simtime.events_per_host_s"] = perRep(func(r rep) float64 {
			return float64(r.Counts["simtime.events"]) / sumOps(r, "cold", "")
		})
	}
	m["nanos.registry_hiwater"] = float64(c["nanos.registry_hiwater"])
	m["sweep.specs"] = float64(c["sweep.specs"])
	m["obs.events"] = float64(c["obs.events"])
	m["obs.dropped"] = float64(c["obs.dropped"])
	m["obs.trace_mb"] = float64(c["obs.trace_bytes"]) / 1e6
	var specs []float64
	for _, wr := range traced {
		specs = append(specs, wr.Rep.SpecMs...)
	}
	if len(specs) > 0 {
		m["sweep.spec_p50_ms"] = median(specs)
		m["sweep.spec_max_ms"] = quantile(specs, 1)
	}
	runtimeMetrics(runtimeSample{
		AllocBytes: perRep(func(r rep) float64 { return r.Runtime.AllocBytes }),
		GCCycles:   perRep(func(r rep) float64 { return r.Runtime.GCCycles }),
		GCCPU:      perRep(func(r rep) float64 { return r.Runtime.GCCPU }),
		TotalCPU:   perRep(func(r rep) float64 { return r.Runtime.TotalCPU }),
	}, m)
	if load.twin != "" {
		m["obs.record_s"] = perRep(func(r rep) float64 { return sumOps(r, "record", "") })
		m["obs.export_s"] = perRep(func(r rep) float64 { return sumOps(r, "export", "") })
		m["obs.metrics_s"] = perRep(func(r rep) float64 { return sumOps(r, "metrics", "") })
		m["dlb.pop_s"] = perRep(func(r rep) float64 { return sumOps(r, "pop", "") })
		m["obs.overhead_x"] = perRep(func(r rep) float64 {
			return sumOps(r, "record", load.twin) / sumOps(r, "cold", load.twin)
		})
	}
	m["experiments.sim_headline"] = traced[0].Rep.Headline
	o.Detail["paper_headline"] = paperHeadline[load.figs[0]]
	var twin []float64
	for _, wr := range untraced {
		twin = append(twin, wr.Rep.Seconds)
	}
	m["bench.trace_overhead_frac"] = perRep(func(r rep) float64 { return r.Seconds })/median(twin) - 1

	var samples []profSample
	var profiles, spans []string
	for _, wr := range traced {
		ss, err := readProfile(wr.Profile)
		if err != nil {
			return err
		}
		samples = append(samples, ss...)
		profiles, spans = append(profiles, wr.Profile), append(spans, wr.Spans)
	}
	shares, byOp := foldLayers(samples)
	for k, v := range shares {
		m[k] = v
	}
	o.Detail["profiles"] = profiles
	o.Detail["spans"] = spans
	o.Detail["op_cpu_s"] = byOp
	return nil
}
