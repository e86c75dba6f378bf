package expander

import (
	"math"
	"math/rand"
	"testing"
)

// Property: on random biregular graphs and random bounds, the hill-climb
// scorer accepts exactly when scoreGraph reaches the bound, and then
// returns scoreGraph's value. One scorer per size judges a long random
// walk of helper swaps, so stale buffers and the remembered witness
// subset are exercised as in the climb.
func TestQuickIsoScorerMatchesScoreGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []struct{ appranks, nodes int }{
		{2, 2}, {4, 2}, {4, 4}, {6, 3}, {8, 4}, {8, 8}, {10, 5}, {12, 6}, {12, 4}, {16, 8},
	}
	accepts, rejects := 0, 0
	for _, sz := range sizes {
		sc := newIsoScorer(sz.appranks)
		for trial := 0; trial < 6; trial++ {
			p := Params{Appranks: sz.appranks, Nodes: sz.nodes, Degree: 1 + rng.Intn(sz.nodes), Seed: rng.Int63()}
			g, ok := dealAndRepair(p, rng)
			if !ok {
				continue
			}
			for step := 0; step < 60; step++ {
				if helpers := p.Degree - 1; helpers > 0 {
					// An arbitrary swap; duplicate edges are allowed here,
					// the scorer must agree on any adjacency.
					a, b := rng.Intn(p.Appranks), rng.Intn(p.Appranks)
					i, j := 1+rng.Intn(helpers), 1+rng.Intn(helpers)
					g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
				}
				want := scoreGraph(g)
				for _, floor := range floors(rng, want, p.Nodes) {
					got, ok := sc.scoreAtLeast(g, floor)
					if ok != (want >= floor) {
						t.Fatalf("%+v %v floor %v: accept = %v, scoreGraph %v", p, g.Adj, floor, ok, want)
					}
					if ok {
						accepts++
						if got != want {
							t.Fatalf("%+v %v floor %v: score %v, scoreGraph %v", p, g.Adj, floor, got, want)
						}
					} else {
						rejects++
					}
				}
			}
		}
	}
	if accepts == 0 || rejects == 0 {
		t.Fatalf("degenerate coverage: %d accepts, %d rejects", accepts, rejects)
	}
}

// floors returns bounds around and away from the score s: s itself and
// its floating-point neighbours (the ties the climb's >= sees), the other
// side of the disconnection penalty, ratios of small integers, and
// uniform draws.
func floors(rng *rand.Rand, s float64, nodes int) []float64 {
	return []float64{
		s,
		math.Nextafter(s, math.Inf(1)),
		math.Nextafter(s, math.Inf(-1)),
		s - 100,
		s + 100,
		float64(rng.Intn(nodes+1)) / float64(1+rng.Intn(8)),
		float64(rng.Intn(nodes+1))/float64(1+rng.Intn(8)) - 100,
		-101 + rng.Float64()*float64(nodes+102),
		math.Inf(-1),
	}
}
