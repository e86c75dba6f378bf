package nbody

import (
	"sync"
	"testing"
)

// TestTrajectoriesComputeEachKeyOnce runs many concurrent simulations
// over one memo, several per physics configuration: each configuration
// must be integrated exactly once and every run must see that one
// trajectory. Run it under -race.
func TestTrajectoriesComputeEachKeyOnce(t *testing.T) {
	memo := NewTrajectories()
	seeds := []int64{1, 2, 3}
	const perKey = 4
	sims := make([]*ClusterSim, len(seeds)*perKey)
	var wg sync.WaitGroup
	for i := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := testAdapterConfig()
			cfg.Bodies = 128
			cfg.Seed = seeds[i%len(seeds)]
			cfg.Trajectories = memo
			sims[i] = NewClusterSim(cfg)
		}()
	}
	wg.Wait()
	if got := memo.computed.Load(); got != int64(len(seeds)) {
		t.Fatalf("computed %d trajectories for %d keys", got, len(seeds))
	}
	for i, cs := range sims {
		if first := sims[i%len(seeds)]; cs.traj != first.traj {
			t.Fatalf("run %d got a different trajectory than run %d of the same key", i, i%len(seeds))
		}
	}
}
