// Logistics: the paper's motivating scenario. An online war-strategy game
// has military camps (Q) scattered over the map and a set of candidate
// locations (P) for a logistics center. With abundant supplies the best
// center minimizes the aggregate distance to *all* camps (an ANN query,
// φ = 1); with supplies for only half the camps, the flexible query
// (φ = 0.5) finds a different — much better placed — center.
//
// The example shows how the answer and its aggregate cost change as the
// supply fraction φ varies, for both max (worst-served camp) and sum
// (total transport cost) objectives.
package main

import (
	"fmt"
	"log"

	"fannr"
)

func main() {
	// The game map: roads are index-free here — the map changes every
	// match, so we use algorithms that need no precomputed index, exactly
	// the scenario the paper designed Exact-max and APX-sum for.
	g, err := fannr.Generate(fannr.GenConfig{Nodes: 20_000, Seed: 3, Name: "warmap"})
	if err != nil {
		log.Fatal(err)
	}
	gen := fannr.NewWorkloadGenerator(g, 11)
	candidates := gen.UniformP(0.005)    // ~100 candidate build sites
	camps := gen.ClusteredQ(0.40, 48, 3) // 48 camps in 3 theaters

	fmt.Printf("map: %d junctions; %d candidate sites; %d camps in 3 theaters\n\n",
		g.NumNodes(), len(candidates), len(camps))

	fmt.Println("supply-fraction sweep (max = farthest supplied camp):")
	fmt.Printf("%6s %10s %14s\n", "phi", "center", "worst camp dist")
	ine := fannr.NewINE(g)
	for _, phi := range []float64{0.25, 0.5, 0.75, 1.0} {
		q := fannr.Query{P: candidates, Q: camps, Phi: phi, Agg: fannr.Max}
		ans, err := fannr.ExactMax(g, ine, q, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6.2f %10d %14.1f\n", phi, ans[0].P, ans[0].Dist)
	}

	fmt.Println("\nsupply-fraction sweep (sum = total transport cost),")
	fmt.Println("APX-sum (fast, index-free) vs exact GD:")
	fmt.Printf("%6s %12s %12s %8s\n", "phi", "APX-sum", "exact", "ratio")
	for _, phi := range []float64{0.25, 0.5, 0.75, 1.0} {
		q := fannr.Query{P: candidates, Q: camps, Phi: phi, Agg: fannr.Sum}
		apx, err := fannr.APXSum(g, ine, q, 1)
		if err != nil {
			log.Fatal(err)
		}
		exact, err := fannr.GD(g, ine, q, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6.2f %12.1f %12.1f %8.4f\n",
			phi, apx[0].Dist, exact[0].Dist, apx[0].Dist/exact[0].Dist)
	}
	fmt.Println("\n(the paper proves the ratio is at most 3; in practice it stays near 1)")
}
