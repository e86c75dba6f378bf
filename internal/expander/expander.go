// Package expander generates the bipartite biregular expander graphs of
// §5.2 of the paper: one partition is the application ranks (appranks), the
// other is the compute nodes, and an edge (a, n) means apprank a may
// execute tasks on node n. Each apprank has exactly Degree incident edges
// (the "offloading degree"), the first of which is its home node; each node
// has exactly Appranks*Degree/Nodes incident edges.
//
// Random bipartite biregular graphs are expanders with high probability;
// generation retries with local repair until the constraints hold, and
// small graphs can be validated by computing the vertex isoperimetric
// number exhaustively. Graphs are cached by a Store so each configuration
// is generated only once, as in the paper.
package expander

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sort"
)

// Params selects a graph configuration.
type Params struct {
	// Appranks is the number of application ranks (left partition size).
	Appranks int
	// Nodes is the number of compute nodes (right partition size).
	// Appranks must be a multiple of Nodes.
	Nodes int
	// Degree is the offloading degree: the number of nodes (including the
	// home node) on which each apprank can execute tasks. Degree 1 means
	// no offloading.
	Degree int
	// Seed drives the random generation; the same Params always produce
	// the same graph.
	Seed int64
	// Shape selects the graph family; the zero value is ShapeExpander.
	Shape Shape
}

// Shape is a graph family. Random expanders are the paper's design; rings
// and full bipartite graphs exist for the ablation study.
type Shape int

const (
	// ShapeExpander is a random bipartite biregular graph (the default).
	ShapeExpander Shape = iota
	// ShapeRing connects each apprank to Degree consecutive nodes
	// starting at its home node.
	ShapeRing
	// ShapeFull connects each apprank to every node; Degree is forced to
	// Nodes.
	ShapeFull
)

func (s Shape) String() string {
	switch s {
	case ShapeExpander:
		return "expander"
	case ShapeRing:
		return "ring"
	case ShapeFull:
		return "full"
	}
	return fmt.Sprintf("Shape(%d)", int(s))
}

// Graph is a bipartite biregular graph between appranks and nodes.
type Graph struct {
	Appranks int
	Nodes    int
	Degree   int
	// Adj[a] lists the nodes adjacent to apprank a; Adj[a][0] is always
	// a's home node.
	Adj [][]int
}

// RanksPerNode returns the number of appranks homed on each node.
func (p Params) RanksPerNode() int { return p.Appranks / p.Nodes }

// HomeNode returns the home node of apprank a under the blocked placement
// used throughout: consecutive appranks share a node.
func (p Params) HomeNode(a int) int { return a / p.RanksPerNode() }

func (p Params) validate() error {
	if p.Appranks <= 0 || p.Nodes <= 0 {
		return fmt.Errorf("expander: non-positive partition sizes %d x %d", p.Appranks, p.Nodes)
	}
	if p.Appranks%p.Nodes != 0 {
		return fmt.Errorf("expander: %d appranks not a multiple of %d nodes", p.Appranks, p.Nodes)
	}
	if p.Shape == ShapeFull {
		return nil
	}
	if p.Degree < 1 || p.Degree > p.Nodes {
		return fmt.Errorf("expander: degree %d out of range [1, %d]", p.Degree, p.Nodes)
	}
	return nil
}

// Generate builds the graph described by p.
func Generate(p Params) (*Graph, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	switch p.Shape {
	case ShapeRing:
		return generateRing(p), nil
	case ShapeFull:
		return generateFull(p), nil
	}
	return generateExpander(p)
}

// MustGenerate is Generate, panicking on error. Intended for experiment
// setup code with known-good parameters.
func MustGenerate(p Params) *Graph {
	g, err := Generate(p)
	if err != nil {
		panic(err)
	}
	return g
}

func generateRing(p Params) *Graph {
	g := newGraph(p)
	for a := 0; a < p.Appranks; a++ {
		home := p.HomeNode(a)
		g.Adj[a] = append(g.Adj[a], home)
		for k := 1; k < p.Degree; k++ {
			g.Adj[a] = append(g.Adj[a], (home+k)%p.Nodes)
		}
	}
	return g
}

func generateFull(p Params) *Graph {
	p.Degree = p.Nodes
	g := newGraph(p)
	for a := 0; a < p.Appranks; a++ {
		home := p.HomeNode(a)
		g.Adj[a] = append(g.Adj[a], home)
		for n := 0; n < p.Nodes; n++ {
			if n != home {
				g.Adj[a] = append(g.Adj[a], n)
			}
		}
	}
	return g
}

func newGraph(p Params) *Graph {
	return &Graph{
		Appranks: p.Appranks,
		Nodes:    p.Nodes,
		Degree:   p.Degree,
		Adj:      make([][]int, p.Appranks),
	}
}

// generateExpander builds a random bipartite biregular graph. Large graphs
// are expanders with high probability, so the first connected candidate
// from the configuration model (with local repair) is returned. Small
// graphs (<= 20 appranks), as in the paper, go through a heuristic-based
// search: candidates are scored by their exact vertex isoperimetric
// number and improved by hill-climbing edge swaps until the best
// achievable expansion for the configuration is reached.
func generateExpander(p Params) (*Graph, error) {
	if p.Degree == 1 {
		g := newGraph(p)
		for a := 0; a < p.Appranks; a++ {
			g.Adj[a] = []int{p.HomeNode(a)}
		}
		return g, nil
	}
	rng := rand.New(rand.NewSource(p.Seed ^ 0x5eed))
	const maxAttempts = 200
	small := p.Appranks <= 20 && p.Degree >= 2 && p.Degree < p.Nodes
	// Best achievable expansion: with one apprank per node a ratio
	// strictly above 1 is possible; with several appranks per node, a
	// subset holding half the appranks can reach at most all N nodes, so
	// the optimum is 1.0.
	target := 1.0
	if p.RanksPerNode() == 1 {
		target = 1.0 + 1e-9
	}
	var best *Graph
	bestScore := -1e18
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g, ok := dealAndRepair(p, rng)
		if !ok {
			continue
		}
		if !small {
			if g.IsConnected() {
				return g, nil
			}
			continue
		}
		score := scoreGraph(g)
		if score >= target {
			return g, nil
		}
		if score > bestScore {
			best, bestScore = g, score
		}
		// A handful of random deals is usually enough to seed the climb.
		if attempt >= 10 {
			break
		}
	}
	if best == nil {
		return nil, fmt.Errorf("expander: failed to generate %+v after %d attempts", p, maxAttempts)
	}
	best, bestScore = hillClimb(best, bestScore, target, p, rng, 3000)
	if bestScore >= target || (bestScore >= 0 && best.IsConnected()) {
		return best, nil
	}
	return nil, fmt.Errorf("expander: no connected graph found for %+v", p)
}

// scoreGraph evaluates a candidate: its exact isoperimetric number,
// heavily penalised if disconnected.
func scoreGraph(g *Graph) float64 {
	h := g.IsoperimetricNumber()
	if !g.IsConnected() {
		return h - 100
	}
	return h
}

// hillClimb improves a small graph by random helper-edge swaps, keeping a
// swap when it does not decrease the score and stopping as soon as the
// target expansion is reached. Swaps are judged by an isoScorer, whose
// decisions are exactly scoreGraph's. Swapping two helper entries between
// appranks preserves biregularity by construction.
func hillClimb(g *Graph, score, target float64, p Params, rng *rand.Rand, iters int) (*Graph, float64) {
	helpers := p.Degree - 1
	if helpers == 0 {
		return g, score
	}
	validAt := func(a, pos int) bool {
		n := g.Adj[a][pos]
		if n == g.Adj[a][0] {
			return false
		}
		for i, m := range g.Adj[a] {
			if i != pos && i != 0 && m == n {
				return false
			}
		}
		return true
	}
	sc := newIsoScorer(p.Appranks)
	for it := 0; it < iters && score < target; it++ {
		a := rng.Intn(p.Appranks)
		b := rng.Intn(p.Appranks)
		if a == b {
			continue
		}
		i := 1 + rng.Intn(helpers)
		j := 1 + rng.Intn(helpers)
		g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
		if !validAt(a, i) || !validAt(b, j) {
			g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
			continue
		}
		if s, ok := sc.scoreAtLeast(g, score); ok {
			score = s
		} else {
			g.Adj[a][i], g.Adj[b][j] = g.Adj[b][j], g.Adj[a][i]
		}
	}
	// Restore sorted helper order for a canonical adjacency list.
	for a := 0; a < p.Appranks; a++ {
		h := g.Adj[a][1:]
		sort.Ints(h)
	}
	return g, score
}

// dealAndRepair performs one randomized construction attempt.
func dealAndRepair(p Params, rng *rand.Rand) (*Graph, bool) {
	helpers := p.Degree - 1
	perNode := p.RanksPerNode() * helpers
	slots := make([]int, 0, p.Appranks*helpers)
	for n := 0; n < p.Nodes; n++ {
		for k := 0; k < perNode; k++ {
			slots = append(slots, n)
		}
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })

	// assign[a] holds apprank a's helper nodes (may initially conflict).
	assign := make([][]int, p.Appranks)
	for a := 0; a < p.Appranks; a++ {
		assign[a] = slots[a*helpers : (a+1)*helpers : (a+1)*helpers]
	}
	conflict := func(a, pos int) bool {
		n := assign[a][pos]
		if n == p.HomeNode(a) {
			return true
		}
		for i, m := range assign[a] {
			if i != pos && m == n {
				return true
			}
		}
		return false
	}
	// Repair pass: swap conflicting entries with random entries elsewhere.
	const maxRepairs = 10000
	for repairs := 0; ; repairs++ {
		fixed := true
		for a := 0; a < p.Appranks && fixed; a++ {
			for pos := 0; pos < helpers; pos++ {
				if conflict(a, pos) {
					fixed = false
					break
				}
			}
		}
		if fixed {
			break
		}
		if repairs >= maxRepairs {
			return nil, false
		}
		for a := 0; a < p.Appranks; a++ {
			for pos := 0; pos < helpers; pos++ {
				if !conflict(a, pos) {
					continue
				}
				// Try random swap partners until both sides are valid.
				swapped := false
				for try := 0; try < 50 && !swapped; try++ {
					b := rng.Intn(p.Appranks)
					q := rng.Intn(helpers)
					if b == a {
						continue
					}
					assign[a][pos], assign[b][q] = assign[b][q], assign[a][pos]
					if !conflict(a, pos) && !conflict(b, q) {
						swapped = true
					} else {
						assign[a][pos], assign[b][q] = assign[b][q], assign[a][pos]
					}
				}
			}
		}
	}
	g := newGraph(p)
	for a := 0; a < p.Appranks; a++ {
		adj := make([]int, 0, p.Degree)
		adj = append(adj, p.HomeNode(a))
		helpersCopy := append([]int(nil), assign[a]...)
		sort.Ints(helpersCopy)
		adj = append(adj, helpersCopy...)
		g.Adj[a] = adj
	}
	return g, true
}

// Neighbors returns the nodes adjacent to apprank a. The first entry is
// the home node. The returned slice must not be modified.
func (g *Graph) Neighbors(a int) []int { return g.Adj[a] }

// Home returns apprank a's home node.
func (g *Graph) Home(a int) int { return g.Adj[a][0] }

// HasEdge reports whether apprank a is adjacent to node n.
func (g *Graph) HasEdge(a, n int) bool {
	for _, m := range g.Adj[a] {
		if m == n {
			return true
		}
	}
	return false
}

// NodeDegree returns the number of appranks adjacent to node n.
func (g *Graph) NodeDegree(n int) int {
	d := 0
	for a := range g.Adj {
		if g.HasEdge(a, n) {
			d++
		}
	}
	return d
}

// AppranksOn returns the appranks adjacent to node n, in increasing order.
func (g *Graph) AppranksOn(n int) []int {
	var out []int
	for a := range g.Adj {
		if g.HasEdge(a, n) {
			out = append(out, a)
		}
	}
	return out
}

// Validate checks structural invariants: per-apprank degree, per-node
// degree, home-first, and no duplicate edges.
func (g *Graph) Validate() error {
	wantNodeDeg := g.Appranks * g.Degree / g.Nodes
	for a, adj := range g.Adj {
		if len(adj) != g.Degree {
			return fmt.Errorf("expander: apprank %d has degree %d, want %d", a, len(adj), g.Degree)
		}
		seen := make(map[int]bool, len(adj))
		for _, n := range adj {
			if n < 0 || n >= g.Nodes {
				return fmt.Errorf("expander: apprank %d adjacent to invalid node %d", a, n)
			}
			if seen[n] {
				return fmt.Errorf("expander: apprank %d has duplicate edge to node %d", a, n)
			}
			seen[n] = true
		}
	}
	for n := 0; n < g.Nodes; n++ {
		if d := g.NodeDegree(n); d != wantNodeDeg {
			return fmt.Errorf("expander: node %d has degree %d, want %d (not biregular)", n, d, wantNodeDeg)
		}
	}
	return nil
}

// IsConnected reports whether the bipartite graph is connected.
func (g *Graph) IsConnected() bool {
	if g.Appranks == 0 {
		return true
	}
	seenA := make([]bool, g.Appranks)
	seenN := make([]bool, g.Nodes)
	queue := []int{0} // apprank ids; nodes encoded as id+Appranks
	seenA[0] = true
	countA, countN := 1, 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v < g.Appranks {
			for _, n := range g.Adj[v] {
				if !seenN[n] {
					seenN[n] = true
					countN++
					queue = append(queue, n+g.Appranks)
				}
			}
		} else {
			n := v - g.Appranks
			for a := 0; a < g.Appranks; a++ {
				if !seenA[a] && g.HasEdge(a, n) {
					seenA[a] = true
					countA++
					queue = append(queue, a)
				}
			}
		}
	}
	return countA == g.Appranks && countN == g.Nodes
}

// IsoperimetricNumber computes the vertex isoperimetric number
// min |N(S)|/|S| over all non-empty subsets S of appranks with
// |S| <= ceil(Appranks/2), by exhaustive enumeration with a
// subset-neighbourhood DP (O(2^Appranks) time and space). It panics above
// 20 appranks; use EstimateIsoperimetric for larger graphs.
func (g *Graph) IsoperimetricNumber() float64 {
	if g.Appranks > 20 {
		panic("expander: exhaustive isoperimetric number limited to 20 appranks")
	}
	// No subset falls below an infinite floor and every one exceeds it,
	// so this is one full enumeration after a trivial pruned one.
	h, _ := newIsoScorer(g.Appranks).atLeast(g, 0, math.Inf(-1))
	return h
}

// isoScorer evaluates the isoperimetric number of a sequence of graphs
// with the same number of appranks, reusing its buffers. It enumerates
// the subsets of at most half the appranks depth-first, carrying each
// subset's neighbourhood down the recursion. Given the score a graph
// must reach, it stops as soon as one subset proves the graph falls
// short, and it tries first the subset that last did.
type isoScorer struct {
	nb []uint64 // neighbour mask of each apprank
	// Indexed by subset size: the fewest neighbours that reach the
	// score, the fewest that exceed it, and the fewest seen.
	minPass, minExceed, minCnt []int
	pruned                     bool   // a subtree was skipped as exceeding
	witness                    uint32 // the subset that last proved a graph short, or 0
}

func newIsoScorer(appranks int) *isoScorer {
	half := (appranks + 1) / 2
	return &isoScorer{
		nb:        make([]uint64, appranks),
		minPass:   make([]int, half+1),
		minExceed: make([]int, half+1),
		minCnt:    make([]int, half+1),
	}
}

// scoreAtLeast reports whether scoreGraph(g) >= floor and, when it is,
// returns scoreGraph(g).
func (c *isoScorer) scoreAtLeast(g *Graph, floor float64) (float64, bool) {
	pen := 0.0
	if !g.IsConnected() {
		pen = 100
	}
	h, ok := c.atLeast(g, pen, floor)
	return h - pen, ok
}

// atLeast reports whether h - pen >= floor, h being g's isoperimetric
// number, and when it is returns a ratio r with r - pen == h - pen (r is
// h itself when pen is 0). Subtracting pen and dividing are monotone in
// floating point, so a subset whose own ratio r has r - pen < floor
// rejects exactly when h does; per subset size that is a neighbour
// count below minPass.
//
// A subset whose neighbourhood already reaches minExceed at the largest
// size its supersets can have is not extended: every superset's ratio
// is strictly above the floor. So if some visited subset ties the floor,
// it is the minimum; otherwise the score improved and one enumeration
// without skipping gives the exact value.
func (c *isoScorer) atLeast(g *Graph, pen, floor float64) (float64, bool) {
	for a, adj := range g.Adj {
		var m uint64
		for _, n := range adj {
			m |= 1 << uint(n)
		}
		c.nb[a] = m
	}
	for k := 1; k < len(c.minPass); k++ {
		c.minPass[k], c.minExceed[k] = g.Nodes+1, g.Nodes+1
		for cnt := g.Nodes; cnt >= 0; cnt-- {
			r := float64(cnt)/float64(k) - pen
			if r >= floor {
				c.minPass[k] = cnt
			}
			if r > floor {
				c.minExceed[k] = cnt
			}
		}
	}
	if w := c.witness; w != 0 {
		var m uint64
		for r := w; r != 0; r &= r - 1 {
			m |= c.nb[bits.TrailingZeros32(r)]
		}
		if bits.OnesCount64(m) < c.minPass[bits.OnesCount32(w)] {
			return 0, false
		}
	}
	if !c.enumerate(true) {
		return 0, false
	}
	h := c.minRatio(g.Nodes)
	if c.pruned && h-pen != floor {
		c.enumerate(false)
		h = c.minRatio(g.Nodes)
	}
	return h, true
}

// enumerate visits the subsets afresh, skipping exceeding subtrees if
// prune is set. It returns false at the first subset below minPass.
func (c *isoScorer) enumerate(prune bool) bool {
	for k := range c.minCnt {
		c.minCnt[k] = math.MaxInt
	}
	c.pruned = false
	return c.visit(0, 0, 0, 0, prune)
}

// visit extends set (k appranks, neighbourhood m) by each apprank from
// start on, recursing into the extensions.
func (c *isoScorer) visit(set uint32, m uint64, k, start int, prune bool) bool {
	n, half := len(c.nb), len(c.minPass)-1
	k++
	for i := start; i < n; i++ {
		s, mm := set|1<<uint(i), m|c.nb[i]
		cnt := bits.OnesCount64(mm)
		if cnt < c.minCnt[k] {
			if cnt < c.minPass[k] {
				c.witness = s
				return false
			}
			c.minCnt[k] = cnt
		}
		top := min(half, k+n-1-i) // largest superset in the subtree
		if top == k {
			continue
		}
		if prune && cnt >= c.minExceed[top] {
			c.pruned = true
			continue
		}
		if !c.visit(s, mm, k, i+1, prune) {
			return false
		}
	}
	return true
}

// minRatio is the least ratio seen: within one size the ratio grows with
// the count, so it is the least of the per-size minima, capped at nodes.
func (c *isoScorer) minRatio(nodes int) float64 {
	h := float64(nodes)
	for k := 1; k < len(c.minCnt); k++ {
		if c.minCnt[k] <= nodes {
			if r := float64(c.minCnt[k]) / float64(k); r < h {
				h = r
			}
		}
	}
	return h
}

// EstimateIsoperimetric estimates the isoperimetric number by sampling
// random subsets. The result is an upper bound on the true value.
func (g *Graph) EstimateIsoperimetric(samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	half := (g.Appranks + 1) / 2
	best := float64(g.Nodes)
	for s := 0; s < samples; s++ {
		size := 1 + rng.Intn(half)
		perm := rng.Perm(g.Appranks)[:size]
		nb := make(map[int]bool)
		for _, a := range perm {
			for _, n := range g.Adj[a] {
				nb[n] = true
			}
		}
		if ratio := float64(len(nb)) / float64(size); ratio < best {
			best = ratio
		}
	}
	return best
}
