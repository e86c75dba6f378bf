package expander

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Store caches generated graphs, in memory and optionally on disk, so that
// each configuration is generated only once (as the paper does: "each
// graph is stored for future executions"). A Store is safe for concurrent
// use: parallel sweeps share one store so runs of the same layout share
// one graph. Each configuration is generated under its own once, so a
// run needing a cached graph never waits behind the search for another.
// The returned graphs are read-only by convention — the runtime never
// mutates an expander graph after construction.
type Store struct {
	mu  sync.Mutex
	dir string // empty means memory-only
	mem map[string]*storeEntry
}

type storeEntry struct {
	once sync.Once
	g    *Graph
	err  error
}

// NewStore returns a store backed by dir. If dir is empty the store is
// memory-only.
func NewStore(dir string) *Store {
	return &Store{dir: dir, mem: make(map[string]*storeEntry)}
}

func key(p Params) string {
	return fmt.Sprintf("a%d_n%d_d%d_s%d_%s", p.Appranks, p.Nodes, p.Degree, p.Seed, p.Shape)
}

// Get returns the graph for p, generating and caching it on first use.
// Concurrent calls for one configuration wait for a single generation,
// and its error, if any, is returned to every caller.
func (s *Store) Get(p Params) (*Graph, error) {
	k := key(p)
	s.mu.Lock()
	e, ok := s.mem[k]
	if !ok {
		e = &storeEntry{}
		s.mem[k] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.g, e.err = s.fill(k, p) })
	return e.g, e.err
}

// fill loads the graph for p from disk or generates and saves it.
func (s *Store) fill(k string, p Params) (*Graph, error) {
	if s.dir != "" {
		if g, err := s.load(k); err == nil {
			if err := g.Validate(); err == nil {
				return g, nil
			}
		}
	}
	g, err := Generate(p)
	if err != nil {
		return nil, err
	}
	if s.dir != "" {
		if err := s.save(k, g); err != nil {
			return nil, fmt.Errorf("expander: saving graph: %w", err)
		}
	}
	return g, nil
}

func (s *Store) path(k string) string {
	return filepath.Join(s.dir, k+".json")
}

func (s *Store) load(k string) (*Graph, error) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		return nil, err
	}
	var g Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, err
	}
	return &g, nil
}

func (s *Store) save(k string, g *Graph) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(s.path(k), data, 0o644)
}
