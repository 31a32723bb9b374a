package core

import (
	"fmt"
	"math"
	"slices"

	"fannr/internal/graph"
	"fannr/internal/phl"
	"fannr/internal/sp"
)

// APXCandidates exposes APX-sum's candidate step to the external test
// package, which can import internal/difftest for its case corpus.
var APXCandidates = apxCandidates

// restrictOnly is a PHL batcher with its target binding hidden: the Dist
// + DistBatch surface that keeps NewIERGPhi on the Euclidean-restriction
// path, so tests can hold that path against the bound one over the same
// index.
type restrictOnly struct{ b *phl.Batcher }

func (r restrictOnly) Dist(u, v graph.NodeID) float64 { return r.b.Dist(u, v) }

func (r restrictOnly) DistBatch(u graph.NodeID, targets []graph.NodeID, out []float64) {
	r.b.DistBatch(u, targets, out)
}

// kNearest is the sorted k-nearest list behind gp's Dist and Subset,
// copied: the fold's output for a streaming engine, the selected prefix
// for an oracle engine. Fewer than k entries mean fewer than k members of
// Q are reachable from p.
func kNearest(gp GPhi, p graph.NodeID, k int) []sp.Neighbor {
	switch e := gp.(type) {
	case *engine:
		nbrs, _ := e.nearest(p, k, Max, math.Inf(1))
		return slices.Clone(nbrs)
	case *oracleEngine:
		return slices.Clone(e.nearest(p, k))
	}
	panic(fmt.Sprintf("kNearest: %T is not a built-in engine", gp))
}
