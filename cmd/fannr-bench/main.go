// Command fannr-bench regenerates the tables and figures of the paper's
// evaluation section (§VI). Each experiment prints the same series the
// paper plots; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Examples:
//
//	fannr-bench -exp fig4a
//	fannr-bench -exp all -scale 0.015625 -queries 4
//	fannr-bench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"fannr"
)

// config carries the flag values into main: the experiment to run, how
// to print it, and the run's ExpConfig.
type config struct {
	exp, csvDir string
	list, chart bool
	run         fannr.ExpConfig
}

// newFlags registers the command line on a FlagSet of its own, so the
// flag surface is one function a test can read.
func newFlags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("fannr-bench", flag.ExitOnError)
	fs.StringVar(&cfg.exp, "exp", "", "experiment id (see -list) or \"all\"")
	fs.BoolVar(&cfg.list, "list", false, "list experiment ids and exit")
	fs.StringVar(&cfg.run.Dataset, "dataset", "NW", "Table III dataset for workload experiments")
	fs.Float64Var(&cfg.run.Scale, "scale", 1.0/16, "dataset scale relative to the paper's node counts")
	fs.IntVar(&cfg.run.Queries, "queries", 8, "queries averaged per data point (the paper uses 100)")
	fs.Int64Var(&cfg.run.Seed, "seed", 1, "workload seed")
	fs.DurationVar(&cfg.run.Timeout, "timeout", 20*time.Second, "per-(algorithm, tick) budget before DNF")
	fs.Int64Var(&cfg.run.PHLBudget, "phl-budget", 0, "hub-label entry budget (0 = default)")
	fs.StringVar(&cfg.csvDir, "csv", "", "also write one CSV per table into this directory")
	fs.BoolVar(&cfg.chart, "chart", false, "render ASCII charts after each table")
	return fs
}

func main() {
	var cfg config
	newFlags(&cfg).Parse(os.Args[1:])
	if cfg.list {
		for _, id := range fannr.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if cfg.exp == "" {
		fmt.Fprintln(os.Stderr, "fannr-bench: -exp required (or -list)")
		os.Exit(2)
	}
	ids := []string{cfg.exp}
	if cfg.exp == "all" {
		ids = fannr.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := fannr.RunExperiment(id, cfg.run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fannr-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			tbl.Render(os.Stdout)
			fmt.Println()
			if cfg.chart {
				tbl.RenderChart(os.Stdout)
				fmt.Println()
			}
			if cfg.csvDir != "" {
				if err := writeCSV(cfg.csvDir, tbl); err != nil {
					fmt.Fprintf(os.Stderr, "fannr-bench: writing CSV: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Printf("[%s completed in %s]\n\n", id, time.Since(start).Round(time.Millisecond))
	}
}

func writeCSV(dir string, tbl *fannr.ExpTable) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tbl.ID+".csv"))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}
