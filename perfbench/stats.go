package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// digest is the short content hash the output checks compare: the first
// 64 bits of SHA-256, hex encoded.
func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// quantile returns the p-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSS is the figure peak_rss_mb reports: the smallest of the
// processes' peaks. Where the collector's cycles fall relative to the
// largest allocations moves a peak by a third or more from one
// repetition to the next, and the host's load moves that timing, so
// the peaks spread one way only; the smallest is the one that follows
// the program's memory use.
func peakRSS(xs []float64) float64 { return quantile(xs, 0) }

// tailLadder lists the percentiles a tail may be reported at, highest
// last. It stops at p90: the benchmark's sample counts would otherwise
// put the tail at p95 or p99 on some workloads and not others.
var tailLadder = []float64{50, 75, 90}

// tail returns the highest ladder percentile that has at least ten
// samples beyond it, with its label ("p90"). With fewer than twenty
// samples no percentile qualifies and the maximum is reported ("max").
func tail(xs []float64) (float64, string) {
	best := -1.0
	for _, p := range tailLadder {
		if float64(len(xs))*(100-p)/100 >= 10 {
			best = p
		}
	}
	if best < 0 {
		return quantile(xs, 1), "max"
	}
	return quantile(xs, best/100), "p" + strings.TrimSuffix(fmt.Sprintf("%g", best), ".0")
}

// timing is a latency summary as the benchmark reports it: median, the
// tail percentile chosen by tail, and the sample count.
type timing struct {
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	P50     float64 `json:"p50"`
	Tail    float64 `json:"tail"`
	TailPct string  `json:"tail_pct"`
}

func summarize(xs []float64) timing {
	if len(xs) == 0 {
		return timing{}
	}
	t, pct := tail(xs)
	return timing{N: len(xs), Min: quantile(xs, 0), P50: median(xs), Tail: t, TailPct: pct}
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports for the process doing the work.
type runtimeSample struct {
	AllocBytes float64 `json:"alloc_bytes"`
	GCCycles   float64 `json:"gc_cycles"`
	GCCPU      float64 `json:"gc_cpu_s"`
	TotalCPU   float64 `json:"total_cpu_s"`
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := make([]float64, len(ss))
	for i, s := range ss {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{AllocBytes: v[0], GCCycles: v[1], GCCPU: v[2], TotalCPU: v[3]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		AllocBytes: a.AllocBytes - b.AllocBytes,
		GCCycles:   a.GCCycles - b.GCCycles,
		GCCPU:      a.GCCPU - b.GCCPU,
		TotalCPU:   a.TotalCPU - b.TotalCPU,
	}
}

// runtimeMetrics renders a runtime delta as the go-runtime.* metrics.
func runtimeMetrics(d runtimeSample, m map[string]float64) {
	m["go-runtime.alloc_mb"] = d.AllocBytes / 1e6
	m["go-runtime.gc_cycles"] = d.GCCycles
	if d.TotalCPU > 0 {
		m["go-runtime.gc_cpu_share"] = d.GCCPU / d.TotalCPU
	}
}

// gcPercentForFigures applies the rule cmd/lbsim uses for in-process
// figure runs: GOGC=400 unless the environment sets GOGC. It returns
// the effective setting for the host descriptor.
func gcPercentForFigures() string {
	if env := os.Getenv("GOGC"); env != "" {
		return env
	}
	debug.SetGCPercent(400)
	return "400"
}

// lbsimdGOGC is the effective GOGC of an lbsimd child, which inherits
// the environment and otherwise runs at the Go default.
func lbsimdGOGC() string {
	if env := os.Getenv("GOGC"); env != "" {
		return env
	}
	return "100"
}

// host describes the machine and build a result came from. Wall-clock
// figures are only comparable between results with equal descriptors.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GOGC       string `json:"gogc"`
	Commit     string `json:"commit"`
}

func describeHost(gogc string) host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
		GOGC:       gogc,
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	// The checkout the benchmark normally runs in is not a git
	// repository; the revision is known only when the binary was built
	// inside one.
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			h.Commit = rev
			if dirty {
				h.Commit += "-dirty"
			}
		}
	}
	return h
}

// The time metrics count CPU time, not wall-clock time: on a shared
// virtual machine the wall clock also runs while the hypervisor gives
// this guest's cores to others (steal time), which the kernel leaves
// out of a process's CPU time. A figure worker's CPU time is user plus
// system time, which getrusage gives to the microsecond; the system
// part is its page faults, a few percent. The job service's is user
// time only: its system time is mostly file creation (lbsimd's atomic
// rewrites spend more time in openat than anywhere else), and that
// doubles from one run to the next with the host's load while user
// time, the cost of the service's own code, holds within a few percent.
// The detail record keeps the wall-clock and system figures.

// cpuTimes is a process's CPU time so far, user and system.
type cpuTimes struct{ User, Sys time.Duration }

func (a cpuTimes) sub(b cpuTimes) cpuTimes { return cpuTimes{a.User - b.User, a.Sys - b.Sys} }

func (a cpuTimes) total() time.Duration { return a.User + a.Sys }

// selfCPU is this process's CPU time, with microsecond resolution.
func selfCPU() cpuTimes {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTimes{}
	}
	return cpuTimes{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

// userHZ is the unit of the CPU times in /proc/<pid>/stat, fixed at 100
// per second on Linux.
const userHZ = 100

// procCPU is another process's CPU time from /proc/<pid>/stat, in
// 10 ms ticks; callers sum it over enough work to make that fine.
func procCPU(pid int) (cpuTimes, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTimes{}, err
	}
	// The command name in parentheses may hold spaces; the fields after
	// it start with the state, so utime and stime are the 12th and 13th.
	i := strings.LastIndexByte(string(data), ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return cpuTimes{}, fmt.Errorf("/proc/%d/stat: %q", pid, data)
	}
	var t [2]time.Duration
	for k, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/%d/stat: %v", pid, err)
		}
		t[k] = time.Duration(n) * time.Second / userHZ
	}
	return cpuTimes{t[0], t[1]}, nil
}
