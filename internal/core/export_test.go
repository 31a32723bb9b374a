package core

import (
	"fannr/internal/graph"
	"fannr/internal/phl"
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
