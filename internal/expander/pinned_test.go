package expander

import (
	"fmt"
	"strings"
	"testing"
)

// adjString renders an adjacency as "home helpers...|home helpers...|...".
func adjString(g *Graph) string {
	parts := make([]string, len(g.Adj))
	for a, adj := range g.Adj {
		parts[a] = strings.Trim(fmt.Sprint(adj), "[]")
	}
	return strings.Join(parts, "|")
}

// TestGeneratePinned pins the exact adjacency of the small graphs that go
// through the scored hill-climb search. A change to the search or to its
// scoring must leave every one of these graphs unchanged: the figures are
// computed on them.
func TestGeneratePinned(t *testing.T) {
	cases := []struct {
		appranks, nodes, degree int
		seed                    int64
		want                    string
	}{
		{4, 2, 2, 1, "0 1|0 1|1 0|1 0"},
		{4, 2, 2, 2, "0 1|0 1|1 0|1 0"},
		{4, 2, 2, 3, "0 1|0 1|1 0|1 0"},
		{8, 4, 2, 1, "0 1|0 2|1 2|1 3|2 0|2 3|3 0|3 1"},
		{8, 4, 2, 2, "0 1|0 3|1 2|1 2|2 3|2 0|3 0|3 1"},
		{8, 4, 2, 3, "0 1|0 1|1 3|1 2|2 3|2 0|3 2|3 0"},
		{8, 4, 3, 1, "0 1 2|0 1 2|1 0 3|1 0 3|2 1 3|2 1 3|3 0 2|3 0 2"},
		{8, 4, 3, 2, "0 2 3|0 1 3|1 0 3|1 0 2|2 1 3|2 0 1|3 1 2|3 0 2"},
		{8, 4, 3, 3, "0 2 3|0 1 3|1 2 3|1 0 2|2 0 1|2 1 3|3 0 1|3 0 2"},
		{16, 8, 2, 1, "0 6|0 1|1 4|1 5|2 3|2 7|3 6|3 1|4 3|4 0|5 4|5 2|6 7|6 5|7 2|7 0"},
		{16, 8, 2, 2, "0 6|0 1|1 2|1 3|2 7|2 4|3 7|3 4|4 0|4 5|5 1|5 6|6 3|6 2|7 5|7 0"},
		{16, 8, 2, 3, "0 1|0 3|1 5|1 7|2 1|2 6|3 5|3 2|4 3|4 0|5 6|5 7|6 2|6 4|7 4|7 0"},
		{16, 8, 3, 1, "0 3 4|0 2 5|1 0 6|1 2 4|2 0 6|2 5 7|3 1 2|3 0 4|4 2 7|4 1 7|5 1 3|5 3 6|6 4 5|6 3 7|7 0 5|7 1 6"},
		{16, 8, 3, 2, "0 1 5|0 2 5|1 3 6|1 2 5|2 6 7|2 3 4|3 2 5|3 1 6|4 1 6|4 0 1|5 0 4|5 3 7|6 0 7|6 4 7|7 0 2|7 3 4"},
		{16, 8, 3, 3, "0 1 6|0 2 5|1 2 5|1 0 4|2 3 6|2 4 7|3 1 6|3 0 7|4 0 5|4 1 7|5 3 4|5 1 3|6 5 7|6 2 4|7 0 6|7 2 3"},
	}
	for _, c := range cases {
		p := Params{Appranks: c.appranks, Nodes: c.nodes, Degree: c.degree, Seed: c.seed}
		g, err := Generate(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		if got := adjString(g); got != c.want {
			t.Errorf("%+v:\n got  %s\n want %s", p, got, c.want)
		}
	}
}
