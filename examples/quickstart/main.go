// Quickstart: generate a road network, pose one FANN_R query, and answer
// it three ways — exact index-free (Exact-max), exact with an R-tree +
// hub labels (IER-kNN), and by brute force to confirm they agree.
package main

import (
	"fmt"
	"log"

	"fannr"
)

func main() {
	// A ~10k-node synthetic road network (jittered grid + highways).
	g, err := fannr.Generate(fannr.GenConfig{Nodes: 10_000, Seed: 42, Name: "quickstart"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// Workload: 100 candidate sites (P), 64 demand points (Q) drawn from a
	// region covering 10%% of the network.
	gen := fannr.NewWorkloadGenerator(g, 7)
	q := fannr.Query{
		P:   gen.UniformP(0.01),
		Q:   gen.UniformQ(0.10, 64),
		Phi: 0.5, // serve the nearest half of the demand points
		Agg: fannr.Max,
	}
	fmt.Printf("query: |P|=%d |Q|=%d phi=%.1f k=%d agg=%s\n\n",
		len(q.P), len(q.Q), q.Phi, q.K(), q.Agg)

	// 1. Exact-max: exact, needs no road-network index at all.
	ans, err := fannr.ExactMax(g, fannr.NewINE(g), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Exact-max:  p*=%d  d*=%.1f\n", ans.P, ans.Dist)

	// 2. IER-kNN framework: R-tree over P + hub-label distance oracle.
	labels, err := fannr.BuildPHL(g, fannr.PHLOptions{})
	if err != nil {
		log.Fatal(err)
	}
	rtP := fannr.BuildPTree(g, q.P)
	ans2, err := fannr.IERKNN(g, rtP, fannr.NewOracleGPhi("PHL", labels), q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("IER-kNN:    p*=%d  d*=%.1f\n", ans2.P, ans2.Dist)

	// 3. Brute force agrees.
	ref, err := fannr.Brute(g, q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Brute:      p*=%d  d*=%.1f\n", ref.P, ref.Dist)

	if ans.Dist != ref.Dist || ans2.Dist != ref.Dist {
		log.Fatal("answers disagree — this should be impossible")
	}
	fmt.Printf("\noptimal flexible subset (the %d demand points served): %v\n",
		len(ref.Subset), ref.Subset)
}
