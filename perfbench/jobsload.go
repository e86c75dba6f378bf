package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ompsscluster/internal/jobs"
)

// jobVariant is one kind of small cold job: a spec field and its value.
// No record of lbsimd traffic exists, so the rotation gives every
// variant the same weight: one small figure, every policy demo and
// every fault preset but crashnode, whose run aborts by design and
// would count as a failed operation. All are quick-scale specs of
// similar cost, so the latency median does not sit in a gap between
// clusters.
type jobVariant struct{ field, value string }

var jobVariants = []jobVariant{
	{"experiment", "fig5"},
	{"policy", "static"}, {"policy", "guided"}, {"policy", "factoring"},
	{"policy", "wfactoring"}, {"policy", "twolevel"},
	{"faults", "coreloss"}, {"faults", "drainhelper"}, {"faults", "flakylink"},
	{"faults", "slownode"}, {"faults", "storm"},
}

const (
	// jobSeeds is how many spec seeds each variant draws from, so the
	// whole universe of cold specs has committed digests.
	jobSeeds = 300
	// hitsPerCold is how many resubmissions a session makes per cold
	// job: one, as in the README's quickstart and the CI service smoke,
	// which submit a spec and then resubmit it identically.
	hitsPerCold = 1
	// pollInterval is the status poll period, well below the cold p50
	// so polling does not quantise the latency.
	pollInterval = time.Millisecond

	// jobTimeout bounds one job from submit to result.
	jobTimeout = 30 * time.Second
	// setupProbes is how many extra times an untraced run starts lbsimd
	// only to time its set-up; setup_s is the median over them and the
	// real start.
	setupProbes = 20
)

func (v jobVariant) spec(seed int) (key string, body []byte) {
	key = fmt.Sprintf("%s=%s/seed=%d", v.field, v.value, seed)
	body = []byte(fmt.Sprintf(`{%q:%q,"scale":"quick","seed":%d,"parallel":1}`, v.field, v.value, seed))
	return key, body
}

// jobSeq generates a run's submissions from its seed: cold job r is a
// fresh spec of variant r mod len(jobVariants), its seed drawn without
// replacement, and a resubmission is a spec already completed in the
// current session, drawn at random.
type jobSeq struct {
	rng   *rand.Rand
	perms [][]int
	round int
	done  []string
	body  map[string][]byte
}

func newJobSeq(seed int64) *jobSeq {
	s := &jobSeq{rng: rand.New(rand.NewSource(seed)), body: map[string][]byte{}}
	for range jobVariants {
		s.perms = append(s.perms, s.rng.Perm(jobSeeds))
	}
	return s
}

// rounds is the number of rounds before the cold specs run out.
func (s *jobSeq) rounds() int { return len(jobVariants) * jobSeeds }

func (s *jobSeq) cold() (string, []byte) {
	v := s.round % len(jobVariants)
	key, body := jobVariants[v].spec(s.perms[v][s.round/len(jobVariants)] + 1)
	s.round++
	s.body[key] = body
	return key, body
}

func (s *jobSeq) hit() (string, []byte) {
	key := s.done[s.rng.Intn(len(s.done))]
	return key, s.body[key]
}

// jobRec is one job as the client saw it.
type jobRec struct {
	Cold     bool
	SubmitMs float64
	StatusMs []float64
	ResultMs float64
	TotalMs  float64
	CacheHit bool
	Err      error
}

// server is a running job-service process.
type server struct {
	cmd     *exec.Cmd
	out     *bufio.Reader
	base    string
	state   string
	profile string
	hc      *http.Client
	setup   time.Duration
}

// startServer starts lbsimd on a fresh state directory under dir and
// returns once /healthz answers; setup is the time from start until
// then. With a profile path it starts the profiling build of lbsimd
// (lbsimd_profile.go.in), which writes its CPU profile there.
func startServer(ctx context.Context, cfg config, dir, profile string) (*server, error) {
	state := filepath.Join(dir, "state")
	cmd := exec.CommandContext(ctx, cfg.Lbsimd, "-addr", "127.0.0.1:0", "-state", state)
	if profile != "" {
		cmd = exec.CommandContext(ctx, cfg.LbsimdProf, "-addr", "127.0.0.1:0", "-state", state)
		cmd.Env = append(os.Environ(), "PERFBENCH_LBSIMD_PROFILE="+profile)
	}
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, out: bufio.NewReader(pipe), state: state, profile: profile}
	line, err := s.out.ReadString('\n')
	_, rest, ok := strings.Cut(line, "listening on ")
	addr, _, _ := strings.Cut(strings.TrimSpace(rest), " ")
	if err != nil || !ok {
		s.stop()
		return nil, fmt.Errorf("job service handshake: got %q: %v", line, err)
	}
	s.base = addr
	s.hc = &http.Client{
		Timeout:   jobTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	for {
		code, _, _, err := s.do("GET", "/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(start) > 10*time.Second {
			s.stop()
			return nil, fmt.Errorf("job service not healthy after 10s: %v", err)
		}
		time.Sleep(pollInterval)
	}
	s.setup = time.Since(start)
	return s, nil
}

// do sends one request and reads the whole response, so the connection
// is reused for the next one.
func (s *server) do(method, path string, body []byte) (int, []byte, time.Duration, error) {
	start := time.Now()
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), fmt.Errorf("%w: %v", errTransport, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		err = fmt.Errorf("%w: %v", errTransport, err)
	}
	return resp.StatusCode, data, time.Since(start), err
}

// errTransport marks a request that got no complete response and
// errStuck a job that never finished: either ends the session.
var (
	errTransport = errors.New("transport")
	errStuck     = errors.New("stuck")
)

// stop drains the service with SIGTERM, waits for it to exit and
// returns its peak RSS in MB. A profiling server is first told to write
// its profile, with SIGUSR1, and given ten seconds to do so.
func (s *server) stop() (float64, error) {
	if s.hc != nil {
		s.hc.CloseIdleConnections()
	}
	var perr error
	if s.profile != "" {
		s.cmd.Process.Signal(syscall.SIGUSR1)
		deadline := time.Now().Add(10 * time.Second)
		for {
			if _, err := os.Stat(s.profile); err == nil {
				break
			}
			if time.Now().After(deadline) {
				perr = fmt.Errorf("job service wrote no profile %s", s.profile)
				break
			}
			time.Sleep(pollInterval)
		}
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	io.Copy(io.Discard, s.out)
	if err := s.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("job service: %w", err)
	}
	if perr != nil {
		return 0, perr
	}
	return float64(s.cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss) / 1024, nil
}

// writeBytes reads the service's storage writes from /proc/<pid>/io.
func (s *server) writeBytes() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", s.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return 0
}

// job submits one spec and follows it to its result document.
func (s *server) job(key string, body []byte, cold bool, chk *checker) jobRec {
	r := jobRec{Cold: cold}
	start := time.Now()
	code, data, d, err := s.do("POST", "/jobs", body)
	r.SubmitMs = d.Seconds() * 1e3
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("submit: HTTP %d: %s", code, bytes.TrimSpace(data))
	}
	var view struct {
		ID       string `json:"id"`
		State    string `json:"state"`
		CacheHit bool   `json:"cache_hit"`
		Error    string `json:"error"`
	}
	if err == nil {
		err = json.Unmarshal(data, &view)
	}
	for err == nil && view.State != string(jobs.Succeeded) {
		switch view.State {
		case string(jobs.Failed), string(jobs.Canceled):
			err = fmt.Errorf("job %s ended %s: %s", view.ID, view.State, view.Error)
			continue
		}
		if time.Since(start) > jobTimeout {
			err = fmt.Errorf("%w: job %s not done after %v", errStuck, view.ID, jobTimeout)
			continue
		}
		time.Sleep(pollInterval)
		code, data, d, err = s.do("GET", "/jobs/"+view.ID, nil)
		r.StatusMs = append(r.StatusMs, d.Seconds()*1e3)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("status: HTTP %d: %s", code, bytes.TrimSpace(data))
		}
		if err == nil {
			err = json.Unmarshal(data, &view)
		}
	}
	r.CacheHit = view.CacheHit
	if err == nil {
		code, data, d, err = s.do("GET", "/jobs/"+view.ID+"/result", nil)
		r.ResultMs = d.Seconds() * 1e3
		r.TotalMs = time.Since(start).Seconds() * 1e3
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("result: HTTP %d: %s", code, bytes.TrimSpace(data))
		}
	}
	if err == nil {
		var doc jobs.ResultDoc
		if err = json.Unmarshal(data, &doc); err == nil && doc.Err != "" {
			err = fmt.Errorf("%s: run error: %s", key, doc.Err)
		}
		if err == nil {
			err = chk.check(key, digest(data))
		}
	}
	r.Err = err
	return r
}

// sessionRounds is the number of cold jobs in one client session, three
// rotations of the cold-job variants; hitsPerCold times as many
// resubmissions follow them. Every session starts the service on fresh
// state, so the queue and cache grow the same way in every session and
// costs are comparable between runs however many sessions fit.
var sessionRounds = 3 * len(jobVariants)

// session is one closed-loop client session against one server: a cold
// phase, then a hit phase. The service's CPU time is read at the
// phase boundaries, since /proc counts it in 10 ms ticks.
type session struct {
	recs    []jobRec
	seconds float64 // wall time of both phases
	// coldCPU and hitCPU are the service's CPU time in each phase.
	coldCPU, hitCPU cpuTimes
	nCold, nHit     int
	setup           float64
	rss             float64
	// writeBytes is the service's storage writes per job; queueKB the
	// queue file size at the end.
	writeBytes float64
	queueKB    float64
	runtime    runtimeSample
}

// runSession starts a server on fresh state under dir, submits
// sessionRounds cold jobs of seq and then hitsPerCold resubmissions per
// completed one, and stops the server. A transport error or a stuck job
// ends the session early. With a profile path the server is the
// profiling build and its runtime counters are read back.
func runSession(ctx context.Context, cfg config, dir, profile string, seq *jobSeq, chk *checker) (session, error) {
	var p session
	s, err := startServer(ctx, cfg, dir, profile)
	if err != nil {
		return p, err
	}
	p.setup = s.setup.Seconds()
	seq.done = seq.done[:0]
	w0 := s.writeBytes()
	cpu0, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		s.stop()
		return p, err
	}
	start := time.Now()
	broken := false
	for r := 0; r < sessionRounds && seq.round < seq.rounds() && !broken; r++ {
		key, body := seq.cold()
		rec := s.job(key, body, true, chk)
		p.recs = append(p.recs, rec)
		p.nCold++
		broken = errors.Is(rec.Err, errTransport) || errors.Is(rec.Err, errStuck)
		if rec.Err == nil {
			seq.done = append(seq.done, key)
		}
	}
	cpu1, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		s.stop()
		return p, err
	}
	for h := 0; h < hitsPerCold*len(seq.done) && !broken; h++ {
		key, body := seq.hit()
		rec := s.job(key, body, false, chk)
		p.recs = append(p.recs, rec)
		p.nHit++
		broken = errors.Is(rec.Err, errTransport) || errors.Is(rec.Err, errStuck)
	}
	cpu2, err := procCPU(s.cmd.Process.Pid)
	if err != nil {
		s.stop()
		return p, err
	}
	p.seconds = time.Since(start).Seconds()
	p.coldCPU, p.hitCPU = cpu1.sub(cpu0), cpu2.sub(cpu1)
	if n := len(p.recs); n > 0 {
		p.writeBytes = (s.writeBytes() - w0) / float64(n)
	}
	if fi, err := os.Stat(filepath.Join(s.state, "queue.json")); err == nil {
		p.queueKB = float64(fi.Size()) / 1024
	}
	if p.rss, err = s.stop(); err != nil {
		return p, err
	}
	if profile != "" {
		data, err := os.ReadFile(profile + ".runtime.json")
		if err != nil {
			return p, err
		}
		if err := json.Unmarshal(data, &p.runtime); err != nil {
			return p, err
		}
	}
	return p, nil
}

// runJobs runs jobs-mixed: client sessions, each on a fresh server, for
// as long as another fits in the run's seconds. In the traced run the
// sessions alternate between lbsimd, the untraced twin, and its
// profiling build, so a drift in the host's speed falls on both alike;
// the profiled sessions give the per-layer metrics and the two together
// the tracing overhead.
func runJobs(ctx context.Context, cfg config) (*outcome, error) {
	o := newOutcome()
	chk := newChecker(cfg.Digests, "jobs/")
	var setups []float64
	for i := 0; i < setupProbes && !cfg.Trace; i++ {
		s, err := startServer(ctx, cfg, filepath.Join(cfg.Work, fmt.Sprintf("probe-%d", i)), "")
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.setup.Seconds())
		if _, err := s.stop(); err != nil {
			return nil, err
		}
	}
	seq := newJobSeq(cfg.Seed)
	var untraced, traced []session
	var profiles []string
	start := time.Now()
	budget := time.Duration(cfg.Seconds * float64(time.Second))
	for i := 0; seq.round < seq.rounds(); i++ {
		profile := ""
		if cfg.Trace && i%2 == 1 {
			profile = filepath.Join(cfg.TraceDir, fmt.Sprintf("%s.%d.cpu.pprof", cfg.Workload, i))
		}
		t0 := time.Now()
		p, err := runSession(ctx, cfg, filepath.Join(cfg.Work, strconv.Itoa(i)), profile, seq, chk)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.setup)
		if profile != "" {
			traced = append(traced, p)
			profiles = append(profiles, profile)
		} else {
			untraced = append(untraced, p)
		}
		if cfg.Trace && i == 0 {
			continue
		}
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	measured := untraced
	if cfg.Trace {
		measured = traced
	}

	var cold, hit, submit, status, result, secs, rss, wb, qkb []float64
	polls, jobsN, resubmits, hits := 0, 0, 0, 0
	// CPU totals over the sessions: /proc's 10 ms ticks are too coarse
	// for a median of per-session figures.
	var coldCPU, hitCPU cpuTimes
	nCold, nHit := 0, 0
	for _, p := range measured {
		coldCPU.User += p.coldCPU.User
		coldCPU.Sys += p.coldCPU.Sys
		hitCPU.User += p.hitCPU.User
		hitCPU.Sys += p.hitCPU.Sys
		nCold += p.nCold
		nHit += p.nHit
		secs = append(secs, p.seconds)
		rss = append(rss, p.rss)
		wb = append(wb, p.writeBytes)
		qkb = append(qkb, p.queueKB)
		for _, r := range p.recs {
			o.Attempted++
			if r.Err != nil {
				o.fail(r.Err)
				continue
			}
			if r.Cold {
				cold = append(cold, r.TotalMs)
			} else {
				hit = append(hit, r.TotalMs)
				resubmits++
				if r.CacheHit {
					hits++
				}
			}
			submit = append(submit, r.SubmitMs)
			status = append(status, r.StatusMs...)
			result = append(result, r.ResultMs)
			polls += len(r.StatusMs)
			jobsN++
		}
	}
	if o.Attempted == 0 {
		return nil, errors.New("jobs-mixed: no job was submitted")
	}
	m := o.Metrics
	user := (coldCPU.User + hitCPU.User).Seconds()
	m["setup_s"] = median(setups)
	m["run_cpu_s"] = user / float64(len(measured))
	m["peak_rss_mb"] = peakRSS(rss)
	m["ok_frac"] = float64(o.Attempted-o.Failed) / float64(o.Attempted)
	if nCold > 0 {
		m["cold_job_cpu_ms"] = coldCPU.User.Seconds() * 1e3 / float64(nCold)
	}
	if nHit > 0 {
		m["hit_job_cpu_ms"] = hitCPU.User.Seconds() * 1e3 / float64(nHit)
	}
	if nCold+nHit > 0 {
		m["jobs.sys_ms_per_job"] = (coldCPU.Sys + hitCPU.Sys).Seconds() * 1e3 / float64(nCold+nHit)
	}
	if jobsN > 0 {
		m["jobs.submit_p50_ms"] = median(submit)
		m["jobs.result_p50_ms"] = median(result)
		m["jobs.polls_per_job"] = float64(polls) / float64(jobsN)
	}
	if len(status) > 0 {
		m["jobs.status_p50_ms"] = median(status)
	}
	m["jobs.write_bytes_per_job"] = median(wb)
	m["jobs.queue_file_kb"] = median(qkb)
	if resubmits > 0 {
		m["jobs.cache_hit_ratio"] = float64(hits) / float64(resubmits)
	}
	o.Detail["host"] = describeHost(lbsimdGOGC())
	o.Detail["setup_s"] = summarize(setups)
	o.Detail["run_s"] = summarize(secs)
	o.Detail["peak_rss_mb"] = summarize(rss)
	o.Detail["cold_job_ms"] = summarize(cold)
	o.Detail["hit_job_ms"] = summarize(hit)
	o.Detail["service_cpu_s"] = map[string]float64{
		"cold_user": coldCPU.User.Seconds(), "cold_sys": coldCPU.Sys.Seconds(),
		"hit_user": hitCPU.User.Seconds(), "hit_sys": hitCPU.Sys.Seconds(),
	}
	o.Detail["sessions"] = len(measured)
	if cfg.Trace {
		var twin []float64
		for _, p := range untraced {
			twin = append(twin, p.seconds)
		}
		m["bench.trace_overhead_frac"] = median(secs)/median(twin) - 1
		var rt runtimeSample
		for _, p := range traced {
			rt.AllocBytes += p.runtime.AllocBytes / float64(len(traced))
			rt.GCCycles += p.runtime.GCCycles / float64(len(traced))
			rt.GCCPU += p.runtime.GCCPU
			rt.TotalCPU += p.runtime.TotalCPU
		}
		runtimeMetrics(rt, m)
		if err := jobsProfile(profiles, o); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// jobsProfile folds the traced sessions' CPU profiles into the
// per-layer self-time shares.
func jobsProfile(profiles []string, o *outcome) error {
	var samples []profSample
	for _, prof := range profiles {
		ss, err := readProfile(prof)
		if err != nil {
			return err
		}
		samples = append(samples, ss...)
	}
	shares, byOp := foldLayers(samples)
	for k, v := range shares {
		o.Metrics[k] = v
	}
	o.Detail["profiles"] = profiles
	o.Detail["op_cpu_s"] = byOp
	return nil
}
