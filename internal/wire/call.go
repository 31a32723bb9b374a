package wire

import (
	"fmt"

	"fannr/internal/core"
	"fannr/internal/graph"
)

// Call is a decoded /fann request made ready to run: the validated query
// plus the three choices every tier makes the same way. It is all that
// routing, the result key and an engine run read of the request.
type Call struct {
	core.Query
	// Algo is the algorithm to dispatch, "gd" when the request named none.
	Algo string
	// Engine is the engine asked for, or the tier's default.
	Engine string
	// K is the number of answers, at least 1.
	K int
}

// DefaultEngine serves a request that names no engine on fannr-server
// and the shard coordinator: INE needs no index, so every tier has it.
const DefaultEngine = "INE"

// Tier is what normalising a request needs to know of the tier it runs
// on. The three tiers differ only here.
type Tier struct {
	Graph *graph.Graph
	// Sets is the tier's registry of id lists (core/sets.go).
	Sets *core.SetRegistry
	// DefaultEngine serves a request that names no engine.
	DefaultEngine string
	// HasEngine rejects a request for an engine the tier does not serve,
	// saying why when the catalogue knows the name: the index it needs, or
	// coordinates. The coordinator leaves it nil: its hosts decide, and it
	// relays them.
	HasEngine func(string) bool
}

// Normalise turns req into c — aggregate named, algorithm known and
// able to answer it on the tier's graph (core.CheckAlgo), query
// validated against the tier's graph through its registry, engine
// defaulted and served, k at least 1 — before any routing, cache lookup
// or engine checkout. Every failure wraps core.ErrInvalid (400). c's
// Stats and Trace are left as the caller set them.
func (t *Tier) Normalise(req *FANNRequest, c *Call) error {
	agg, err := ParseAgg(req.Agg)
	if err != nil {
		return err
	}
	if err := core.CheckAlgo(t.Graph, req.Algo, agg); err != nil {
		return err
	}
	c.P, c.Q, c.Phi, c.Agg, c.Sets = req.P, req.Q, req.Phi, agg, t.Sets
	if err := c.Validate(t.Graph); err != nil {
		return err
	}
	c.Algo, c.Engine, c.K = req.Algo, req.Engine, max(req.K, 1)
	if c.Algo == "" {
		c.Algo = "gd"
	}
	if c.Engine == "" {
		c.Engine = t.DefaultEngine
	}
	if t.HasEngine != nil && !t.HasEngine(c.Engine) {
		_, why := core.Engine(c.Engine, t.Graph, core.Indexes{})
		if why == nil {
			why = fmt.Errorf("unknown engine %q", c.Engine)
		}
		return fmt.Errorf("%w: %v (see /meta)", core.ErrInvalid, why)
	}
	return nil
}

// ParseAgg reads an aggregate's wire name; the empty name is max.
func ParseAgg(name string) (core.Aggregate, error) {
	switch name {
	case "", "max":
		return core.Max, nil
	case "sum":
		return core.Sum, nil
	}
	return 0, fmt.Errorf("%w: unknown aggregate %q", core.ErrInvalid, name)
}
