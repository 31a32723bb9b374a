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

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id (see -list) or \"all\"")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		dataset = flag.String("dataset", "NW", "Table III dataset for workload experiments")
		scale   = flag.Float64("scale", 1.0/16, "dataset scale relative to the paper's node counts")
		queries = flag.Int("queries", 8, "queries averaged per data point (the paper uses 100)")
		seed    = flag.Int64("seed", 1, "workload seed")
		timeout = flag.Duration("timeout", 20*time.Second, "per-(algorithm, tick) budget before DNF")
		budget  = flag.Int64("phl-budget", 0, "hub-label entry budget (0 = default)")
		csvDir  = flag.String("csv", "", "also write one CSV per table into this directory")
		chart   = flag.Bool("chart", false, "render ASCII charts after each table")
	)
	flag.Parse()
	if *list {
		for _, id := range fannr.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "fannr-bench: -exp required (or -list)")
		os.Exit(2)
	}
	cfg := fannr.ExpConfig{
		Dataset:   *dataset,
		Scale:     *scale,
		Queries:   *queries,
		Seed:      *seed,
		Timeout:   *timeout,
		PHLBudget: *budget,
	}
	ids := []string{*expID}
	if *expID == "all" {
		ids = fannr.ExperimentIDs()
	}
	for _, id := range ids {
		start := time.Now()
		tables, err := fannr.RunExperiment(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fannr-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		for _, tbl := range tables {
			tbl.Render(os.Stdout)
			fmt.Println()
			if *chart {
				tbl.RenderChart(os.Stdout)
				fmt.Println()
			}
			if *csvDir != "" {
				if err := writeCSV(*csvDir, tbl); err != nil {
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
