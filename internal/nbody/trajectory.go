package nbody

import (
	"sync"
	"sync/atomic"
)

// trajectoryKey names one physics run: the body distribution, the number
// of timesteps and the integrator settings. Nothing else — not the
// machine, the offloading degree, DLB or the ORB weighting — changes the
// bodies' motion, so runs that agree on a key share one trajectory.
type trajectoryKey struct {
	bodies int
	steps  int
	theta  float64
	dt     float64
	seed   int64
}

// trajectory is the recorded motion of a System under Barnes–Hut forces.
// It is read-only once computed.
type trajectory struct {
	// pos[s] holds the positions at the start of step s.
	pos [][]Vec3
	// counts[s][i] is body i's interaction count in step s.
	counts [][]int
	// final is the state after the last leapfrog update.
	final *System
}

// computeTrajectory integrates the system described by k: each step
// builds the octree, evaluates every body's force and applies one
// leapfrog update.
func computeTrajectory(k trajectoryKey) *trajectory {
	sys := NewRandomSphere(k.bodies, k.seed)
	sys.Theta = k.theta
	if k.dt > 0 {
		sys.DT = k.dt
	}
	tr := &trajectory{
		pos:    make([][]Vec3, k.steps),
		counts: make([][]int, k.steps),
		final:  sys,
	}
	for s := 0; s < k.steps; s++ {
		pos := make([]Vec3, len(sys.Bodies))
		for i, b := range sys.Bodies {
			pos[i] = b.Pos
		}
		tr.pos[s] = pos
		var acc []Vec3
		acc, tr.counts[s] = sys.ComputeForces()
		sys.Step(acc)
	}
	return tr
}

// Trajectories memoises n-body trajectories, so that the runs of a
// figure that share a physics configuration integrate it once. It is
// safe for concurrent use: the first run to need a configuration
// computes it, and concurrent runs needing the same one wait for that
// result instead of recomputing it. A figure owns its memo; nothing is
// shared across figures.
type Trajectories struct {
	mu       sync.Mutex
	m        map[trajectoryKey]*trajectoryEntry
	computed atomic.Int64 // trajectories integrated so far
}

type trajectoryEntry struct {
	once sync.Once
	tr   *trajectory
}

// NewTrajectories returns an empty memo.
func NewTrajectories() *Trajectories {
	return &Trajectories{m: make(map[trajectoryKey]*trajectoryEntry)}
}

// get returns the trajectory for k, computing it on first use.
func (t *Trajectories) get(k trajectoryKey) *trajectory {
	t.mu.Lock()
	e, ok := t.m[k]
	if !ok {
		e = &trajectoryEntry{}
		t.m[k] = e
	}
	t.mu.Unlock()
	e.once.Do(func() {
		e.tr = computeTrajectory(k)
		t.computed.Add(1)
	})
	return e.tr
}
