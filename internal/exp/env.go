// Package exp is the benchmark harness that regenerates every table and
// figure of the paper's evaluation (§VI). Each experiment has a driver
// returning a Table whose series mirror the paper's plot lines; the
// fannr-bench CLI and the repository-level testing.B benchmarks both call
// into this package.
package exp

import (
	"fmt"
	"time"

	"fannr/internal/core"
	"fannr/internal/graph"
	"fannr/internal/gtree"
	"fannr/internal/phl"
	"fannr/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Dataset is the Table III network name (default "NW", the paper's
	// default).
	Dataset string
	// Scale shrinks the dataset relative to the paper's node counts
	// (default workload.DefaultScale = 1/16).
	Scale float64
	// Queries is the number of query instances averaged per data point
	// (the paper uses 100; default 8 to keep runs interactive).
	Queries int
	// Seed makes workload generation deterministic.
	Seed int64
	// Timeout is the per-(algorithm, tick) time budget; combinations that
	// exceed it are reported DNF, mirroring the paper's "cannot finish
	// within a reasonable time" entries.
	Timeout time.Duration
	// PHLBudget caps hub-label entries (the paper's PHL exceeds memory on
	// CTR and USA; the default budget reproduces that on the two largest
	// scaled datasets).
	PHLBudget int64
}

func (c Config) withDefaults() Config {
	if c.Dataset == "" {
		c.Dataset = "NW"
	}
	if c.Scale <= 0 {
		c.Scale = workload.DefaultScale
	}
	if c.Queries <= 0 {
		c.Queries = 8
	}
	if c.Timeout <= 0 {
		c.Timeout = 20 * time.Second
	}
	if c.PHLBudget <= 0 {
		// ~190 MB of labels: enough for the five smaller scaled datasets
		// (the default NW environment needs ~13M entries) but exceeded by
		// the scaled CTR and USA, reproducing the paper's Fig. 9 outcome.
		c.PHLBudget = 16_000_000
	}
	return c
}

// gtreeLeafFor returns the paper's τ setting per dataset (§VI-A: 64 for
// DE, 128 for ME/COL, 256 for NW/E, 512 for CTR/USA), scaled down with the
// dataset so tree shapes stay comparable.
func gtreeLeafFor(name string) int {
	switch name {
	case "DE":
		return 64
	case "ME", "COL":
		return 128
	case "NW", "E":
		return 256
	default:
		return 512
	}
}

// Env holds one dataset with all indexes and engines built, ready to run
// experiments. Building an Env is the index-construction cost the paper
// reports separately (Fig. 9) and excludes from query timings.
type Env struct {
	Cfg   Config
	G     *graph.Graph
	PHL   *phl.Index
	GTree *gtree.Tree
	Gen   *workload.Generator

	engines map[string]core.GPhi
	// ix is what the catalogue builds engines over: PHL and GTree.
	ix core.Indexes
}

// EngineNames lists the g_φ engines of the paper's Table I, in its order.
var EngineNames = []string{"INE", "A*", "GTree", "PHL", "IER-A*", "IER-GTree", "IER-PHL"}

// NewEnv loads the dataset and builds every index.
func NewEnv(cfg Config) (*Env, error) {
	cfg = cfg.withDefaults()
	g, err := workload.LoadDataset(cfg.Dataset, cfg.Scale)
	if err != nil {
		return nil, err
	}
	return NewEnvOn(cfg, g)
}

// NewEnvOn builds an Env over an already-loaded graph.
func NewEnvOn(cfg Config, g *graph.Graph) (*Env, error) {
	cfg = cfg.withDefaults()
	ix, err := phl.Build(g, phl.Options{MaxEntries: cfg.PHLBudget})
	if err != nil {
		return nil, fmt.Errorf("exp: building hub labels: %w", err)
	}
	tr, err := gtree.Build(g, gtree.Options{MaxLeafSize: gtreeLeafFor(cfg.Dataset)})
	if err != nil {
		return nil, fmt.Errorf("exp: building G-tree: %w", err)
	}
	e := &Env{
		Cfg:     cfg,
		G:       g,
		PHL:     ix,
		GTree:   tr,
		Gen:     workload.NewGenerator(g, cfg.Seed),
		engines: make(map[string]core.GPhi, len(EngineNames)),
		ix:      core.Indexes{PHL: ix, GTree: tr},
	}
	return e, nil
}

// Engine returns the named g_φ engine (Table I), constructing it on first
// use. Engines are stateful; the harness is single-threaded per Env.
func (e *Env) Engine(name string) (core.GPhi, error) {
	if gp, ok := e.engines[name]; ok {
		return gp, nil
	}
	gp, err := e.buildEngine(name)
	if err != nil {
		return nil, err
	}
	e.engines[name] = gp
	return gp, nil
}

// buildEngine constructs a fresh, uncached engine. Experiment sweeps use
// private instances per series because an over-budget run is abandoned
// mid-flight, poisoning its engine's scratch state.
func (e *Env) buildEngine(name string) (core.GPhi, error) {
	f, err := core.Engine(name, e.G, e.ix)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	return f(), nil
}
