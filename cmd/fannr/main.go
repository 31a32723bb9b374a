// Command fannr runs a single FANN_R or k-FANN_R query against a
// synthetic or DIMACS road network and prints the answer with timing.
//
// Examples:
//
//	fannr -dataset NW -scale 0.01 -algo exactmax -phi 0.5 -m 128
//	fannr -gr de.gr -co de.co -algo ier -engine PHL -agg sum -k 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fannr"
	"fannr/internal/core"
	"fannr/internal/server"
	"fannr/internal/wire"
	"fannr/internal/workload"
)

func main() {
	var (
		dataset = flag.String("dataset", "NW", "Table III dataset name (synthetic)")
		scale   = flag.Float64("scale", 1.0/64, "dataset scale relative to the paper's node counts")
		grFile  = flag.String("gr", "", "DIMACS .gr file (overrides -dataset)")
		coFile  = flag.String("co", "", "DIMACS .co coordinate file")
		algo    = flag.String("algo", "ier", "algorithm: gd | rlist | ier | exactmax | apxsum")
		engine  = flag.String("engine", "PHL", "g_phi engine: "+strings.Join(core.EngineNames(), " | "))
		agg     = flag.String("agg", "max", "aggregate: max | sum")
		phi     = flag.Float64("phi", 0.5, "flexibility in (0,1]")
		density = flag.Float64("d", 0.001, "density of P (|P| = d|V|)")
		cover   = flag.Float64("a", 0.10, "coverage ratio of Q")
		m       = flag.Int("m", 128, "|Q|")
		c       = flag.Int("c", 1, "query clusters (1 = uniform)")
		kAns    = flag.Int("k", 1, "answers to return (k-FANN_R when > 1)")
		seed    = flag.Int64("seed", 1, "workload seed")
		lonlat  = flag.Bool("lonlat", false, "treat DIMACS coordinates as lon/lat and reproject (tightens Euclidean bounds)")
		verify  = flag.Bool("verify", false, "independently verify each answer against Definition 2")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *grFile, *coFile, *algo, *engine, *agg,
		*phi, *density, *cover, *m, *c, *kAns, *seed, *lonlat, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "fannr:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, grFile, coFile, algo, engine, agg string,
	phi, density, cover float64, m, c, kAns int, seed int64, lonlat, verify bool) error {
	g, err := workload.LoadNetwork(dataset, scale, grFile, coFile)
	if err != nil {
		return err
	}
	if lonlat && g.HasCoords() {
		if g, err = fannr.Reproject(g, fannr.EquirectangularFor(g)); err != nil {
			return err
		}
	}
	fmt.Printf("network: %s  |V|=%d |E|=%d\n", g.Name(), g.NumNodes(), g.NumEdges())

	gen := fannr.NewWorkloadGenerator(g, seed)
	P := gen.UniformP(density)
	var Q []fannr.NodeID
	if c <= 1 {
		Q = gen.UniformQ(cover, m)
	} else {
		Q = gen.ClusteredQ(cover, m, c)
	}
	q := fannr.Query{P: P, Q: Q, Phi: phi}
	if q.Agg, err = wire.ParseAgg(strings.ToLower(agg)); err != nil {
		return err
	}
	fmt.Printf("query: |P|=%d |Q|=%d phi=%g k=%d agg=%s algo=%s engine=%s\n",
		len(P), len(Q), phi, q.K(), q.Agg, algo, engine)

	gp, err := buildEngine(g, engine)
	if err != nil {
		return err
	}

	start := time.Now()
	answers, err := core.Dispatch(g, strings.ToLower(algo), gp, q, kAns)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	for i, a := range answers {
		fmt.Printf("answer %d: p*=%d  d*=%.3f  |Q*_phi|=%d\n", i+1, a.P, a.Dist, len(a.Subset))
		fmt.Printf("  Q*_phi: %v\n", a.Subset)
		if verify {
			if err := fannr.Verify(g, q, a); err != nil {
				return fmt.Errorf("verification failed: %w", err)
			}
			fmt.Println("  verified ok")
		}
	}
	fmt.Printf("query time: %s\n", elapsed)
	return nil
}

// buildEngine constructs the requested g_φ engine, building only the
// index it searches (hub labels and G-trees take time on big networks).
func buildEngine(g *fannr.Graph, name string) (fannr.GPhi, error) {
	x, err := core.EngineIndex(name)
	if err != nil {
		return nil, err
	}
	ix, err := server.BuildIndexes(g, []core.Index{x})
	if err != nil {
		return nil, err
	}
	f, err := core.Engine(name, g, ix)
	if err != nil {
		return nil, err
	}
	return f(), nil
}
