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

// config carries the flag values into run.
type config struct {
	dataset, grFile, coFile string
	scale                   float64
	algo, engine, agg       string
	phi, density, cover     float64
	m, c, k                 int
	seed                    int64
	lonlat, verify          bool
}

// newFlags registers the command line on a FlagSet of its own, so the
// flag surface is one function a test can read.
func newFlags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("fannr", flag.ExitOnError)
	fs.StringVar(&cfg.dataset, "dataset", "NW", "Table III dataset name (synthetic)")
	fs.Float64Var(&cfg.scale, "scale", 1.0/64, "dataset scale relative to the paper's node counts")
	fs.StringVar(&cfg.grFile, "gr", "", "DIMACS .gr file (overrides -dataset)")
	fs.StringVar(&cfg.coFile, "co", "", "DIMACS .co coordinate file")
	fs.StringVar(&cfg.algo, "algo", "ier", "algorithm: gd | rlist | ier | exactmax | apxsum")
	fs.StringVar(&cfg.engine, "engine", "PHL", "g_phi engine: "+strings.Join(core.EngineNames(), " | "))
	fs.StringVar(&cfg.agg, "agg", "max", "aggregate: max | sum")
	fs.Float64Var(&cfg.phi, "phi", 0.5, "flexibility in (0,1]")
	fs.Float64Var(&cfg.density, "d", 0.001, "density of P (|P| = d|V|)")
	fs.Float64Var(&cfg.cover, "a", 0.10, "coverage ratio of Q")
	fs.IntVar(&cfg.m, "m", 128, "|Q|")
	fs.IntVar(&cfg.c, "c", 1, "query clusters (1 = uniform)")
	fs.IntVar(&cfg.k, "k", 1, "answers to return (k-FANN_R when > 1)")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.BoolVar(&cfg.lonlat, "lonlat", false, "treat DIMACS coordinates as lon/lat and reproject (tightens Euclidean bounds)")
	fs.BoolVar(&cfg.verify, "verify", false, "independently verify each answer against Definition 2")
	return fs
}

func main() {
	var cfg config
	newFlags(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fannr:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	g, err := workload.LoadNetwork(cfg.dataset, cfg.scale, cfg.grFile, cfg.coFile)
	if err != nil {
		return err
	}
	if cfg.lonlat && g.HasCoords() {
		if g, err = fannr.Reproject(g, fannr.EquirectangularFor(g)); err != nil {
			return err
		}
	}
	fmt.Printf("network: %s  |V|=%d |E|=%d\n", g.Name(), g.NumNodes(), g.NumEdges())

	gen := fannr.NewWorkloadGenerator(g, cfg.seed)
	P := gen.UniformP(cfg.density)
	var Q []fannr.NodeID
	if cfg.c <= 1 {
		Q = gen.UniformQ(cfg.cover, cfg.m)
	} else {
		Q = gen.ClusteredQ(cfg.cover, cfg.m, cfg.c)
	}
	q := fannr.Query{P: P, Q: Q, Phi: cfg.phi}
	if q.Agg, err = wire.ParseAgg(strings.ToLower(cfg.agg)); err != nil {
		return err
	}
	fmt.Printf("query: |P|=%d |Q|=%d phi=%g k=%d agg=%s algo=%s engine=%s\n",
		len(P), len(Q), cfg.phi, q.K(), q.Agg, cfg.algo, cfg.engine)

	gp, err := buildEngine(g, cfg.engine)
	if err != nil {
		return err
	}

	start := time.Now()
	answers, err := core.Dispatch(g, strings.ToLower(cfg.algo), gp, q, cfg.k)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	for i, a := range answers {
		fmt.Printf("answer %d: p*=%d  d*=%.3f  |Q*_phi|=%d\n", i+1, a.P, a.Dist, len(a.Subset))
		fmt.Printf("  Q*_phi: %v\n", a.Subset)
		if cfg.verify {
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
