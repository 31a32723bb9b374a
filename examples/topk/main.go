// Topk: answering k-FANN_R queries (§V of the paper) — return the k best
// candidate sites at once, e.g. to present alternatives to a user. The
// example runs the four adapted algorithms side by side, times them, and
// checks they return identical distance profiles.
package main

import (
	"fmt"
	"log"
	"math"
	"time"

	"fannr"
)

func main() {
	g, err := fannr.LoadDataset("NW", 1.0/64)
	if err != nil {
		log.Fatal(err)
	}
	gen := fannr.NewWorkloadGenerator(g, 5)
	q := fannr.Query{
		P:   gen.UniformP(0.002),
		Q:   gen.UniformQ(0.10, 128),
		Phi: 0.5,
		Agg: fannr.Max,
	}
	const k = 5
	fmt.Printf("network %s: %d nodes; |P|=%d |Q|=%d phi=%.1f; top-%d\n\n",
		g.Name(), g.NumNodes(), len(q.P), len(q.Q), q.Phi, k)

	labels, err := fannr.BuildPHL(g, fannr.PHLOptions{})
	if err != nil {
		log.Fatal(err)
	}
	phlGD := fannr.NewOracleGPhi("PHL", labels)
	phlRL := fannr.NewOracleGPhi("PHL", labels)
	phlIER := fannr.NewOracleGPhi("PHL", labels)
	ine := fannr.NewINE(g)
	rtP := fannr.BuildPTree(g, q.P)

	type method struct {
		name string
		run  func() ([]fannr.Answer, error)
	}
	methods := []method{
		{"KGD (PHL)", func() ([]fannr.Answer, error) { return fannr.KGD(g, phlGD, q, k) }},
		{"KRList (PHL)", func() ([]fannr.Answer, error) { return fannr.KRList(g, phlRL, q, k) }},
		{"KIERKNN (PHL)", func() ([]fannr.Answer, error) {
			return fannr.KIERKNN(g, rtP, phlIER, q, k)
		}},
		{"KExactMax (INE)", func() ([]fannr.Answer, error) { return fannr.KExactMax(g, ine, q, k) }},
	}

	var reference []fannr.Answer
	for _, m := range methods {
		start := time.Now()
		answers, err := m.run()
		elapsed := time.Since(start)
		if err != nil {
			log.Fatalf("%s: %v", m.name, err)
		}
		fmt.Printf("%-16s %10s  ", m.name, elapsed.Round(time.Microsecond))
		for _, a := range answers {
			fmt.Printf(" (p=%d d=%.0f)", a.P, a.Dist)
		}
		fmt.Println()
		if reference == nil {
			reference = answers
			continue
		}
		for i := range answers {
			if math.Abs(answers[i].Dist-reference[i].Dist) > 1e-6 {
				log.Fatalf("%s disagrees at rank %d", m.name, i+1)
			}
		}
	}
	fmt.Println("\nall four adaptations agree on the top-k distance profile.")
}
