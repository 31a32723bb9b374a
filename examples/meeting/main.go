// Meeting: the paper's real-world scenario — choosing a venue for an
// election meeting that is legitimate as long as at least half of the
// members attend. Venues are the real-world POI layers of the paper's
// Table IV: hotels host the meeting (P), members travel from their
// registered addresses (Q). Minimizing the *sum* distance over the best
// quorum cuts total travel cost; the example also contrasts it with the
// φ = 1 (everyone attends) answer.
package main

import (
	"fmt"
	"log"

	"fannr"
)

func main() {
	g, err := fannr.LoadDataset("NW", 1.0/64)
	if err != nil {
		log.Fatal(err)
	}
	gen := fannr.NewWorkloadGenerator(g, 2026)

	// Venues: the hotel POI layer (Table IV: HOT).
	hotels, err := fannr.FindPOILayer("HOT")
	if err != nil {
		log.Fatal(err)
	}
	venues := gen.POI(hotels)
	// Members: clustered around a few neighborhoods.
	members := gen.ClusteredQ(0.30, 96, 4)
	fmt.Printf("network %s: %d nodes; %d candidate hotels; %d members\n\n",
		g.Name(), g.NumNodes(), len(venues), len(members))

	// Index the network once (venues rarely change); PHL-style hub labels
	// answer each member-to-venue distance in microseconds.
	labels, err := fannr.BuildPHL(g, fannr.PHLOptions{})
	if err != nil {
		log.Fatal(err)
	}
	gp := fannr.NewOracleGPhi("PHL", labels)
	rtP := fannr.BuildPTree(g, venues)

	for _, scenario := range []struct {
		phi  float64
		name string
	}{
		{0.5, "quorum (half the members)"},
		{1.0, "full attendance"},
	} {
		q := fannr.Query{P: venues, Q: members, Phi: scenario.phi, Agg: fannr.Sum}
		answers, err := fannr.IERKNN(g, rtP, gp, q, 1)
		if err != nil {
			log.Fatal(err)
		}
		ans := answers[0]
		x, y := g.Coord(ans.P)
		fmt.Printf("%s:\n", scenario.name)
		fmt.Printf("  venue node %d at (%.0f, %.0f)\n", ans.P, x, y)
		fmt.Printf("  total travel %.1f over %d attendees (avg %.1f each)\n\n",
			ans.Dist, len(ans.Subset), ans.Dist/float64(len(ans.Subset)))
	}
	fmt.Println("the quorum meeting's venue sits inside the densest member cluster;")
	fmt.Println("full attendance drags it toward the geometric middle of all clusters.")
}
