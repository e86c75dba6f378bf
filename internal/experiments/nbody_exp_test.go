package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"

	"ompsscluster/internal/core"
	"ompsscluster/internal/nbody"
	"ompsscluster/internal/simtime"
)

// TestNBodySharedTrajectoryMatchesFresh is the differential for the
// per-figure trajectory memo: every fig6c and ablation-orbweights
// configuration, run concurrently over one shared memo, must give the
// step completion times of the same configuration run alone with its
// own physics.
func TestNBodySharedTrajectoryMatchesFresh(t *testing.T) {
	sc := QuickScale()
	sc.Iterations = 1
	type config struct {
		nodes, degree int
		lewi          bool
		drom          core.DROMMode
		timeWeights   bool
	}
	var configs []config
	for _, n := range []int{2, 4} {
		for _, tw := range []bool{false, true} {
			configs = append(configs,
				config{n, 1, false, core.DROMOff, tw},
				config{n, 1, true, core.DROMLocal, tw},
				config{n, 2, true, core.DROMGlobal, tw})
			if n >= 3 {
				configs = append(configs, config{n, 3, true, core.DROMGlobal, tw})
			}
		}
	}
	run := func(traj *nbody.Trajectories, c config) []simtime.Time {
		return nbodyStepEnds(sc, traj, c.nodes, c.degree, c.lewi, c.drom, true, c.timeWeights)
	}
	shared := nbody.NewTrajectories()
	got := make([][]simtime.Time, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(shared, c)
		}()
	}
	wg.Wait()
	for i, c := range configs {
		want := run(nil, c)
		if fmt.Sprint(got[i]) != fmt.Sprint(want) {
			t.Errorf("%+v: shared-memo step ends %v, fresh %v", c, got[i], want)
		}
	}
}

// TestFig6cQuickDigest pins the fig6c quick CSV at seed 1 to the digest
// the benchmark records for it (perfbench/digests.json).
func TestFig6cQuickDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig6c at quick scale")
	}
	sc := QuickScale()
	sc.Parallel = 2
	res, err := ByID("fig6c", sc)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.CSV()))
	if got, want := hex.EncodeToString(sum[:8]), "2cac6ef4944a2398"; got != want {
		t.Fatalf("fig6c quick seed 1 digest %s, want %s:\n%s", got, want, res.CSV())
	}
}
