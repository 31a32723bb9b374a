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
// coordinator run identical paths. What CheckAlgo rejects is a client
// fault (ErrInvalid) here too.
func Dispatch(g *graph.Graph, algo string, gp GPhi, q Query, k int) ([]Answer, error) {
	a, err := checkAlgo(g, algo, q.Agg)
	if err != nil {
		return nil, err
	}
	var rtP *rtree.Tree
	if a == algoIERKNN {
		// Validating here (solve's own Validate then passes through) is
		// what lets the tree be built over q.P as it stands — or taken
		// from the registry entry Validate found for it.
		if err := q.Validate(g); err != nil {
			return nil, err
		}
		rtP = q.pTree(g)
	}
	return solve(g, gp, q, a, k, k <= 1, rtP, nil)
}

// CheckAlgo reports, wrapped in ErrInvalid, every fault of a request
// that its algorithm name decides over g whatever the engine: an unknown
// name, "ier" on a graph without coordinates, and an aggregate the
// algorithm does not answer (Exact-max is max only, APX-sum sum only).
// The tiers call it before routing, so such a request never checks out
// an engine or reaches a breaker.
func CheckAlgo(g *graph.Graph, name string, agg Aggregate) error {
	_, err := checkAlgo(g, name, agg)
	return err
}

func checkAlgo(g *graph.Graph, name string, agg Aggregate) (algo, error) {
	a, ok := algoByName[name]
	if !ok {
		return 0, fmt.Errorf("%w: unknown algorithm %q", ErrInvalid, name)
	}
	if a == algoIERKNN && !g.HasCoords() {
		return 0, fmt.Errorf("%w: algorithm \"ier\" needs coordinates, which dataset %q lacks", ErrInvalid, g.Name())
	}
	return a, a.checkAgg(agg)
}

// checkAgg rejects an aggregate a does not answer.
func (a algo) checkAgg(agg Aggregate) error {
	if (a == algoExactMax && agg != Max) || (a == algoAPXSum && agg != Sum) {
		return fmt.Errorf("%w: %s does not support the %v aggregate", ErrInvalid, algoSpans[a][0][len("algo:"):], agg)
	}
	return nil
}
