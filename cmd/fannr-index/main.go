// Command fannr-index builds the road-network indexes a server loads
// instead of rebuilding (hub labels, G-tree) and persists them as v4
// section files, so repeated query or benchmark sessions skip the
// construction cost the paper reports in Fig. 9. With -kind dimacs it
// writes the network itself as DIMACS .gr/.co files instead, to inspect,
// reuse, or feed to other tools (including back into fannr via -gr/-co).
// An index file of an older format version is rebuilt, not converted.
//
// Examples:
//
//	fannr-index -dataset NW -scale 0.0625 -kind phl -out nw.phl
//	fannr-index -gr nw.gr -co nw.co -kind gtree -out nw.gtree
//	fannr-index -dataset NW -kind all -out nw       # nw.phl nw.gtree
//	fannr-index -dataset DE -scale 0.0625 -kind dimacs -out de   # de.gr de.co
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"fannr"
	"fannr/internal/workload"
)

// config carries the flag values into run.
type config struct {
	dataset, grFile, coFile string
	scale                   float64
	kind, out               string
	leaf, workers           int
}

// newFlags registers the command line on a FlagSet of its own, so the
// flag surface is one function a test can read.
func newFlags(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("fannr-index", flag.ExitOnError)
	fs.StringVar(&cfg.dataset, "dataset", "NW", "Table III dataset name (synthetic)")
	fs.Float64Var(&cfg.scale, "scale", 1.0/64, "dataset scale")
	fs.StringVar(&cfg.grFile, "gr", "", "DIMACS .gr file (overrides -dataset)")
	fs.StringVar(&cfg.coFile, "co", "", "DIMACS .co coordinate file")
	fs.StringVar(&cfg.kind, "kind", "all", "index kind: phl | gtree | all, or dimacs for the network itself")
	fs.StringVar(&cfg.out, "out", "index", "output path (suffixes added for -kind all and dimacs)")
	fs.IntVar(&cfg.leaf, "gtree-leaf", 256, "G-tree max leaf size (tau)")
	fs.IntVar(&cfg.workers, "workers", 0, "G-tree build workers (0 = GOMAXPROCS, 1 = sequential)")
	return fs
}

func main() {
	var cfg config
	newFlags(&cfg).Parse(os.Args[1:])
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "fannr-index:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	kind, out := cfg.kind, cfg.out
	save := func(name string, build func(w io.Writer) (int64, error)) error {
		start := time.Now()
		bytes, err := atomicWrite(name, build)
		if err != nil {
			return fmt.Errorf("writing %s: %w", name, err)
		}
		fmt.Printf("wrote %s: ~%.1f MB in %s\n", name, float64(bytes)/1e6,
			time.Since(start).Round(time.Millisecond))
		return nil
	}
	if kind != "phl" && kind != "gtree" && kind != "all" && kind != "dimacs" {
		return fmt.Errorf("unknown index kind %q", kind)
	}

	g, err := workload.LoadNetwork(cfg.dataset, cfg.scale, cfg.grFile, cfg.coFile)
	if err != nil {
		return err
	}
	fmt.Printf("network: %s |V|=%d |E|=%d\n", g.Name(), g.NumNodes(), g.NumEdges())
	if kind == "dimacs" {
		if _, err := atomicWrite(out+".gr", func(gr io.Writer) (int64, error) {
			return atomicWrite(out+".co", func(co io.Writer) (int64, error) { return 0, fannr.WriteDIMACS(g, gr, co) })
		}); err != nil {
			return fmt.Errorf("writing %s.gr and %s.co: %w", out, out, err)
		}
		fmt.Printf("wrote %s.gr and %s.co\n", out, out)
		return nil
	}

	suffix := func(k string) string {
		if kind == "all" {
			return out + "." + k
		}
		return out
	}
	if kind != "gtree" {
		if err := save(suffix("phl"), func(w io.Writer) (int64, error) {
			ix, err := fannr.BuildPHL(g, fannr.PHLOptions{})
			if err != nil {
				return 0, err
			}
			fmt.Printf("hub labels: %d entries, %.1f per node\n", ix.Entries(), ix.AvgLabelSize())
			return ix.MemoryBytes(), ix.Save(w)
		}); err != nil {
			return err
		}
	}
	if kind != "phl" {
		return save(suffix("gtree"), func(w io.Writer) (int64, error) {
			tr, err := fannr.BuildGTree(g, fannr.GTreeOptions{MaxLeafSize: cfg.leaf, Workers: cfg.workers})
			if err != nil {
				return 0, err
			}
			return tr.Stats().MemoryBytes, tr.Save(w)
		})
	}
	return nil
}

// atomicWrite streams build into a temp file next to name, fsyncs it,
// and renames it into place, so a crash or full disk mid-build can never
// leave a truncated index at name — readers see the old file or the new
// one, nothing in between. The directory is fsynced after the rename so
// the new name itself survives a power cut.
func atomicWrite(name string, build func(w io.Writer) (int64, error)) (int64, error) {
	dir := filepath.Dir(name)
	tmp, err := os.CreateTemp(dir, filepath.Base(name)+".tmp*")
	if err != nil {
		return 0, err
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bytes, err := build(tmp)
	if err != nil {
		return 0, err
	}
	if err := tmp.Sync(); err != nil {
		return 0, err
	}
	// os.CreateTemp creates the file 0600; publish the index readable by
	// other users and services, as a direct os.Create would have.
	if err := tmp.Chmod(0o644); err != nil {
		return 0, err
	}
	if err := tmp.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), name); err != nil {
		return 0, err
	}
	tmp = nil // renamed into place: nothing left to clean up
	d, err := os.Open(dir)
	if err != nil {
		return 0, err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return 0, fmt.Errorf("syncing %s: %w", dir, err)
	}
	return bytes, nil
}
