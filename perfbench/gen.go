package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// generateDigests recomputes the committed digests: for the figure
// workload named by cfg (or every one when cfg.Workload is empty) at
// seeds 0..seeds-1, and for jobs-mixed every cold spec of the job
// universe. The entries are merged into the JSON file at out. Run it
// only when a change is meant to alter outputs:
//
//	bash perfbench/run.sh -gen-digests perfbench/digests.json -workload <name> -seed 16
func generateDigests(ctx context.Context, cfg config, seeds int, out string, log io.Writer) error {
	got := map[string]string{}
	if data, err := os.ReadFile(out); err == nil {
		if err := json.Unmarshal(data, &got); err != nil {
			return fmt.Errorf("%s: %w", out, err)
		}
	}
	names := []string{cfg.Workload}
	if cfg.Workload == "" {
		names = []string{"nbody-slownode", "synthetic-imbalance", "observed-trace", "jobs-mixed"}
	}
	base := filepath.Join(".bench_build", fmt.Sprintf("gen-%d", os.Getpid()))
	defer os.RemoveAll(base)
	for _, name := range names {
		c := cfg
		c.Workload, c.Seconds, c.Trace = name, 0.001, false
		c.Work = filepath.Join(base, name)
		if err := os.MkdirAll(c.Work, 0o755); err != nil {
			return err
		}
		if name == "jobs-mixed" {
			if err := jobDigests(ctx, c, got); err != nil {
				return err
			}
			fmt.Fprintf(log, "jobs-mixed: %d specs\n", len(jobVariants)*jobSeeds)
			continue
		}
		if _, ok := figureLoads[name]; !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		for seed := 0; seed < seeds; seed++ {
			c.Seed = int64(seed)
			start := time.Now()
			// Checkpoint mode runs under the job hooks, so the spec
			// count is recorded too.
			_, wr, _, err := runWorker(ctx, c, "checkpoint", "gen")
			if err != nil {
				return err
			}
			if err := checkExports(c, "gen", &wr.Rep); err != nil {
				return err
			}
			prefix := fmt.Sprintf("%s/seed=%d/", name, seed)
			r := wr.Rep
			for _, p := range r.Ops {
				if p.Err != "" {
					return fmt.Errorf("%s%s %s: %s", prefix, p.Kind, p.Name, p.Err)
				}
				if p.Digest != "" {
					got[prefix+artifact(p)] = p.Digest
				}
			}
			for k, v := range r.Counts {
				got[prefix+"count."+k] = strconv.FormatUint(v, 10)
			}
			fmt.Fprintf(log, "%s seed %d: %.1fs\n", name, seed, time.Since(start).Seconds())
		}
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// One entry per line keeps the file diffable.
	buf := []byte("{\n")
	for i, k := range keys {
		kb, _ := json.Marshal(k)
		vb, _ := json.Marshal(got[k])
		buf = append(buf, "  "...)
		buf = append(buf, kb...)
		buf = append(buf, ": "...)
		buf = append(buf, vb...)
		if i < len(keys)-1 {
			buf = append(buf, ',')
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, "}\n"...)
	return os.WriteFile(out, buf, 0o644)
}

// jobDigests submits every spec of the job universe once to a fresh
// lbsimd and records each result document's digest.
func jobDigests(ctx context.Context, cfg config, got map[string]string) error {
	s, err := startServer(ctx, cfg, cfg.Work, "")
	if err != nil {
		return err
	}
	chk := newChecker(nil, "")
	for _, v := range jobVariants {
		for seed := 1; seed <= jobSeeds; seed++ {
			key, body := v.spec(seed)
			if r := s.job(key, body, true, chk); r.Err != nil {
				s.stop()
				return r.Err
			}
			got["jobs/"+key] = chk.seen[key]
		}
	}
	_, err = s.stop()
	return err
}
