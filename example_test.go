package fannr_test

import (
	"fmt"
	"log"

	"fannr"
)

// buildFig1 constructs the road network of the paper's Fig. 1 running
// example. Node ids: p1..p9 -> 0..8, q1 -> 9, q2 -> 10; q3 = p4, q4 = p5.
func buildFig1() (*fannr.Graph, []fannr.NodeID, []fannr.NodeID) {
	b := fannr.NewBuilder(11)
	edges := []fannr.Edge{
		{U: 1, V: 9, W: 10}, // p2 - q1
		{U: 9, V: 2, W: 2},  // q1 - p3
		{U: 2, V: 10, W: 2}, // p3 - q2
		{U: 10, V: 5, W: 8}, // q2 - p6
		{U: 1, V: 3, W: 12}, // p2 - p4 (q3)
		{U: 1, V: 4, W: 16}, // p2 - p5 (q4)
		{U: 0, V: 1, W: 30}, // p1
		{U: 0, V: 6, W: 5},  // p7
		{U: 6, V: 7, W: 6},  // p8
		{U: 7, V: 8, W: 7},  // p9
	}
	for _, e := range edges {
		if err := b.AddEdge(e.U, e.V, e.W); err != nil {
			log.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	P := []fannr.NodeID{0, 1, 2, 3, 4, 5, 6, 7, 8}
	Q := []fannr.NodeID{9, 10, 3, 4}
	return g, P, Q
}

// Example_paperFigure1 reproduces the running example of the paper's
// Fig. 1: nine data points, four query points (two co-located with data
// points), and the four queries whose answers the paper states in its
// introduction.
func Example_paperFigure1() {
	g, P, Q := buildFig1()
	gp := fannr.NewINE(g)
	name := func(p fannr.NodeID) string { return fmt.Sprintf("p%d", p+1) }

	for _, c := range []struct {
		label string
		phi   float64
		agg   fannr.Aggregate
	}{
		{"max-ANN        ", 1.0, fannr.Max},
		{"sum-ANN        ", 1.0, fannr.Sum},
		{"max-FANN phi=.5", 0.5, fannr.Max},
		{"sum-FANN phi=.5", 0.5, fannr.Sum},
	} {
		answers, err := fannr.GD(g, gp, fannr.Query{P: P, Q: Q, Phi: c.phi, Agg: c.agg}, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s -> %s with aggregate distance %.0f\n", c.label, name(answers[0].P), answers[0].Dist)
	}
	// Output:
	// max-ANN         -> p2 with aggregate distance 16
	// sum-ANN         -> p2 with aggregate distance 52
	// max-FANN phi=.5 -> p3 with aggregate distance 2
	// sum-FANN phi=.5 -> p3 with aggregate distance 4
}

// ExampleExactMax shows the index-free exact algorithm for the max
// aggregate, including the optimal flexible subset it returns.
func ExampleExactMax() {
	g, P, Q := buildFig1()
	answers, err := fannr.ExactMax(g, fannr.NewINE(g), fannr.Query{
		P: P, Q: Q, Phi: 0.5, Agg: fannr.Max,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	ans := answers[0]
	fmt.Printf("p* = p%d, d* = %.0f, |Q*_phi| = %d\n", ans.P+1, ans.Dist, len(ans.Subset))
	// Output:
	// p* = p3, d* = 2, |Q*_phi| = 2
}

// ExampleAPXSum shows the 3-approximation for sum; on the Fig. 1 example
// it returns the true optimum because the nearest neighbors of Q already
// include it.
func ExampleAPXSum() {
	g, P, Q := buildFig1()
	q := fannr.Query{P: P, Q: Q, Phi: 0.5, Agg: fannr.Sum}
	answers, err := fannr.APXSum(g, fannr.NewINE(g), q, 1)
	if err != nil {
		log.Fatal(err)
	}
	ans := answers[0]
	fmt.Printf("p* = p%d, d* = %.0f (proven ratio <= %.0f)\n",
		ans.P+1, ans.Dist, fannr.APXSumRatioBound(q))
	// Output:
	// p* = p3, d* = 4 (proven ratio <= 3)
}

// ExampleGD_topK answers a top-k flexible query: the three best
// candidate sites by flexible max distance.
func ExampleGD_topK() {
	g, P, Q := buildFig1()
	answers, err := fannr.GD(g, fannr.NewINE(g), fannr.Query{
		P: P, Q: Q, Phi: 0.5, Agg: fannr.Max,
	}, 3)
	if err != nil {
		log.Fatal(err)
	}
	// p2 and p6 tie at distance 12, so print distances only (the tie
	// order between equal answers is unspecified).
	for i, a := range answers {
		fmt.Printf("rank %d: distance %.0f\n", i+1, a.Dist)
	}
	// Output:
	// rank 1: distance 2
	// rank 2: distance 12
	// rank 3: distance 12
}

// ExampleOMP finds the optimal meeting point — any network node — for the
// Fig. 1 query points under the max aggregate.
func ExampleOMP() {
	g, _, Q := buildFig1()
	ans, err := fannr.OMP(g, fannr.NewINE(g), Q, fannr.Max)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("meet at node %d; farthest member travels %.0f\n", ans.P, ans.Dist)
	// Output:
	// meet at node 1; farthest member travels 16
}

// ExampleVerify checks an answer against Definition 2 by independent
// computation.
func ExampleVerify() {
	g, P, Q := buildFig1()
	q := fannr.Query{P: P, Q: Q, Phi: 0.5, Agg: fannr.Max}
	answers, err := fannr.RList(g, fannr.NewINE(g), q, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("verified:", fannr.Verify(g, q, answers[0]) == nil)
	// Output:
	// verified: true
}
