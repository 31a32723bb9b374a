package core

import (
	"fmt"

	"fannr/internal/graph"
	"fannr/internal/rtree"
)

// algoByName binds the wire names to the search loops — the one place
// they are bound to code. An empty name defaults to GD.
var algoByName = map[string]algo{
	"":         algoGD,
	"gd":       algoGD,
	"rlist":    algoRList,
	"ier":      algoIERKNN,
	"exactmax": algoExactMax,
	"apxsum":   algoAPXSum,
}

// Dispatch routes a named algorithm to its implementation and returns
// the k best answers: k <= 1 runs exactly what the single-answer entry
// point runs (same span, subset in the query's Scratch), k > 1 what the
// K* entry point runs. It is shared by the HTTP server and the shard
// hosts so a query dispatched locally and one dispatched through the
// coordinator run identical paths. Unknown names and IER without
// coordinates are client faults (ErrInvalid).
func Dispatch(g *graph.Graph, algo string, gp GPhi, q Query, k int) ([]Answer, error) {
	a, ok := algoByName[algo]
	if !ok {
		return nil, fmt.Errorf("%w: unknown algorithm %q", ErrInvalid, algo)
	}
	var rtP *rtree.Tree
	if a == algoIERKNN {
		if !g.HasCoords() {
			return nil, fmt.Errorf("%w: algorithm \"ier\" needs coordinates, which dataset %q lacks", ErrInvalid, g.Name())
		}
		// Validating here (solve's own Validate then passes through) is
		// what lets the tree be built over q.P as it stands — or taken
		// from the registry entry Validate found for it.
		if err := q.Validate(g); err != nil {
			return nil, err
		}
		rtP = q.pTree(g)
	}
	return solve(g, gp, q, a, k, k <= 1, rtP, IEROptions{}, nil)
}

// KnownAlgo reports whether name is a dispatchable algorithm name.
func KnownAlgo(name string) bool {
	_, ok := algoByName[name]
	return ok
}
