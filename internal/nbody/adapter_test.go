package nbody

import (
	"testing"

	"ompsscluster/internal/cluster"
	"ompsscluster/internal/core"
	"ompsscluster/internal/simtime"
)

func testAdapterConfig() AdapterConfig {
	return AdapterConfig{
		Bodies:             512,
		Steps:              3,
		ChunksPerRank:      8,
		CostPerInteraction: 2 * simtime.Microsecond,
		TreeCostPerBody:    100 * simtime.Nanosecond,
		Seed:               11,
	}
}

func TestClusterSimRuns(t *testing.T) {
	cs := NewClusterSim(testAdapterConfig())
	m := cluster.New(2, 4, cluster.DefaultNet())
	rt := core.MustNew(core.Config{Machine: m, Degree: 2, LeWI: true})
	if err := rt.Run(cs.Main()); err != nil {
		t.Fatal(err)
	}
	// 2 ranks x 3 steps x (1 tree + 8 force) tasks.
	if got := rt.TotalTasks(); got != 2*3*9 {
		t.Fatalf("tasks = %d, want 54", got)
	}
	if rt.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestClusterSimPhysicsMatchesStandalone(t *testing.T) {
	// The trajectory a run drives the runtime with must be exactly the
	// standalone loop: per step, the positions ORB sees and the
	// interaction counts the tasks get, and after the last step the
	// integrated state.
	cfg := testAdapterConfig()
	cs := NewClusterSim(cfg)
	m := cluster.New(2, 4, cluster.DefaultNet())
	rt := core.MustNew(core.Config{Machine: m, Degree: 2, LeWI: true, DROM: core.DROMLocal})
	if err := rt.Run(cs.Main()); err != nil {
		t.Fatal(err)
	}
	ref := NewRandomSphere(cfg.Bodies, cfg.Seed) // standalone replay
	for step := 0; step < cfg.Steps; step++ {
		acc, counts := ref.ComputeForces()
		for i := range ref.Bodies {
			if cs.traj.pos[step][i] != ref.Bodies[i].Pos {
				t.Fatalf("step %d: body %d position %v, standalone %v", step, i, cs.traj.pos[step][i], ref.Bodies[i].Pos)
			}
			if cs.traj.counts[step][i] != counts[i] {
				t.Fatalf("step %d: body %d count %d, standalone %d", step, i, cs.traj.counts[step][i], counts[i])
			}
		}
		ref.Step(acc)
	}
	for i := range ref.Bodies {
		if cs.System().Bodies[i] != ref.Bodies[i] {
			t.Fatalf("final body %d = %+v, standalone %+v", i, cs.System().Bodies[i], ref.Bodies[i])
		}
	}
}

func TestSlowNodeHurtsWithoutBalancing(t *testing.T) {
	cfg := testAdapterConfig()
	run := func(mach *cluster.Machine, degree int, lewi bool, drom core.DROMMode) simtime.Duration {
		cs := NewClusterSim(cfg)
		rt := core.MustNew(core.Config{
			Machine:         mach,
			AppranksPerNode: 2,
			Degree:          degree,
			LeWI:            lewi,
			DROM:            drom,
			GlobalPeriod:    100 * simtime.Millisecond,
			Seed:            2,
		})
		if err := rt.Run(cs.Main()); err != nil {
			t.Fatal(err)
		}
		return rt.Elapsed()
	}
	slowMachine := func() *cluster.Machine {
		m := cluster.New(4, 8, cluster.DefaultNet())
		m.SetSpeed(0, 0.6)
		return m
	}
	fast := run(cluster.New(4, 8, cluster.DefaultNet()), 1, false, core.DROMOff)
	slowBase := run(slowMachine(), 1, false, core.DROMOff)
	slowBalanced := run(slowMachine(), 3, true, core.DROMGlobal)
	if slowBase <= fast {
		t.Fatalf("slow node did not slow the baseline: %v <= %v", slowBase, fast)
	}
	if slowBalanced >= slowBase {
		t.Fatalf("balancing did not help the slow-node run: %v >= %v", slowBalanced, slowBase)
	}
}

// TestParallelClusterSimMatchesSequential pins the partitioned engine on
// the one workload with replicated host-side state (the ORB
// decomposition): step completion times, elapsed time and the final physics
// must be identical to the sequential engine at any worker count. The
// slow node plus two appranks per node maximizes same-instant collective
// ties, and time-weighted ORB exercises the per-rank weight stamping.
func TestParallelClusterSimMatchesSequential(t *testing.T) {
	for _, timeWeights := range []bool{false, true} {
		cfg := testAdapterConfig()
		cfg.TimeWeights = timeWeights
		run := func(parallel bool, workers int) ([]simtime.Time, simtime.Duration, *System, bool) {
			cs := NewClusterSim(cfg)
			mach := cluster.New(4, 8, cluster.DefaultNet())
			mach.SetSpeed(0, 0.6)
			rt := core.MustNew(core.Config{
				Machine:         mach,
				AppranksPerNode: 2,
				LeWI:            true,
				Seed:            2,
				SimParallel:     parallel,
				SimWorkers:      workers,
			})
			if err := rt.Run(cs.Main()); err != nil {
				t.Fatal(err)
			}
			return cs.StepEnds(), rt.Elapsed(), cs.System(), rt.Engine() != nil
		}
		refEnds, refElapsed, refSys, _ := run(false, 0)
		for _, workers := range []int{1, 4} {
			ends, elapsed, sys, engaged := run(true, workers)
			if !engaged {
				t.Fatalf("timeWeights=%v workers=%d: parallel engine did not engage", timeWeights, workers)
			}
			if elapsed != refElapsed {
				t.Errorf("timeWeights=%v workers=%d: elapsed = %v, sequential %v", timeWeights, workers, elapsed, refElapsed)
			}
			if len(ends) != len(refEnds) {
				t.Fatalf("timeWeights=%v workers=%d: %d step ends, sequential %d", timeWeights, workers, len(ends), len(refEnds))
			}
			for i := range ends {
				if ends[i] != refEnds[i] {
					t.Errorf("timeWeights=%v workers=%d: step %d ended at %v, sequential %v", timeWeights, workers, i, ends[i], refEnds[i])
				}
			}
			for i := range refSys.Bodies {
				if sys.Bodies[i].Pos != refSys.Bodies[i].Pos {
					t.Fatalf("timeWeights=%v workers=%d: body %d position diverged", timeWeights, workers, i)
				}
			}
		}
	}
}

func TestAdapterPanics(t *testing.T) {
	for _, mod := range []func(*AdapterConfig){
		func(c *AdapterConfig) { c.Bodies = 0 },
		func(c *AdapterConfig) { c.Steps = 0 },
		func(c *AdapterConfig) { c.ChunksPerRank = 0 },
		func(c *AdapterConfig) { c.CostPerInteraction = 0 },
	} {
		cfg := testAdapterConfig()
		mod(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewClusterSim(cfg)
		}()
	}
}
