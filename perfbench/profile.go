package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// layers are the repository's modules as the per-layer metrics name
// them, plus the Go runtime and "other": samples with no repository
// frame, and the cluster and faults packages.
var layers = []string{
	"simtime", "simmpi", "nanos", "core", "dlb", "solver", "expander",
	"nbody", "workloads", "experiments", "obs", "jobs", "go-runtime", "other",
}

// layerOf folds a Go package path into its layer; "" for a package
// outside the repository and the Go runtime.
func layerOf(pkg string) string {
	const repo = "ompsscluster/internal/"
	if rest, ok := strings.CutPrefix(pkg, repo); ok {
		mod, _, _ := strings.Cut(rest, "/")
		switch mod {
		case "balance", "flow", "lp":
			return "solver"
		case "sweep":
			return "experiments"
		case "trace", "metrics":
			return "obs"
		case "simtime", "simmpi", "nanos", "core", "dlb", "expander", "nbody",
			"workloads", "experiments", "obs", "jobs":
			return mod
		}
		return "other"
	}
	// System calls are kernel time spent on the caller's I/O, not
	// runtime overhead.
	if pkg == "internal/runtime/syscall" {
		return ""
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "go-runtime"
	}
	return ""
}

// layerOfStack attributes a sample to a layer: the Go runtime when the
// innermost frame is in it (GC, allocation, scheduling), otherwise the
// layer of the innermost repository frame, so standard-library work
// (encoding, formatting, file and network calls) is charged to the
// layer that asked for it. Samples with no repository frame, such as
// net/http's connection handling, are "other".
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(packageOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// packageOf extracts the package path from a symbol name such as
// "ompsscluster/internal/simtime.(*Env).Run" or
// "ompsscluster/internal/sweep.Map[go.shape.int]".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	start := strings.LastIndexByte(fn, '/') + 1
	if i := strings.IndexByte(fn[start:], '.'); i >= 0 {
		return fn[:start+i]
	}
	return fn
}

// profSample is one CPU profile sample reduced to what the layer fold
// needs: its functions from the innermost out, its CPU time and its
// pprof labels.
type profSample struct {
	stack  []string
	nanos  int64
	labels map[string]string
}

// readProfile reads a CPU profile through `go tool pprof -traces`,
// which prints every sample's labels, CPU time and stack (innermost
// frame first) between separator lines.
func readProfile(path string) ([]profSample, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(ee.Stderr))
		}
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return parseTraces(string(out))
}

// parseTraces parses the output of `go tool pprof -traces`.
func parseTraces(out string) ([]profSample, error) {
	var samples []profSample
	var cur *profSample
	inSamples := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			samples = append(samples, profSample{labels: map[string]string{}})
			cur, inSamples = &samples[len(samples)-1], true
			continue
		}
		fields := strings.Fields(line)
		if !inSamples || len(fields) == 0 {
			continue
		}
		switch {
		case len(cur.stack) == 0 && strings.HasSuffix(fields[0], ":"):
			cur.labels[strings.TrimSuffix(fields[0], ":")] = strings.Join(fields[1:], " ")
		case len(cur.stack) == 0:
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				return nil, fmt.Errorf("pprof -traces: unexpected line %q", line)
			}
			cur.nanos = d.Nanoseconds()
			cur.stack = append(cur.stack, fields[1])
		default:
			cur.stack = append(cur.stack, fields[0])
		}
	}
	// The listing ends with a separator too.
	if n := len(samples); n > 0 && len(samples[n-1].stack) == 0 {
		samples = samples[:n-1]
	}
	return samples, nil
}

// foldLayers returns each layer's share of the samples' CPU time, keyed
// "<layer>.self_share", and the per-op CPU seconds from the op labels.
func foldLayers(samples []profSample) (map[string]float64, map[string]float64) {
	byLayer := map[string]int64{}
	byOp := map[string]float64{}
	var total int64
	for _, s := range samples {
		byLayer[layerOfStack(s.stack)] += s.nanos
		total += s.nanos
		if op := s.labels["op"]; op != "" {
			byOp[op] += float64(s.nanos) / 1e9
		}
	}
	shares := map[string]float64{}
	for _, l := range layers {
		if total > 0 {
			shares[l+".self_share"] = float64(byLayer[l]) / float64(total)
		}
	}
	return shares, byOp
}

// tracer keeps the benchmark's spans in memory: one per call into the
// program, with per-spec children under figure operations.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name   string
	Parent int // index of the parent span, -1 for a root
	Start  time.Duration
	End    time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.t0), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End = time.Since(t.t0)
	return s.End - s.Start
}

// writeChrome writes the spans as a Chrome trace (complete "X" events,
// one track per nesting depth) for Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]ev, 0, len(t.spans))
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		depth := 0
		for p := s.Parent; p >= 0; p = t.spans[p].Parent {
			depth++
		}
		evs = append(evs, ev{
			Name: s.Name, Ph: "X", Pid: 1, Tid: depth,
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Args: map[string]int{"id": i, "parent": s.Parent},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
