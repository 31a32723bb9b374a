// Command fannr-index builds road-network indexes (hub labels, G-tree,
// contraction hierarchy) and persists them to disk, so repeated query or
// benchmark sessions skip the construction cost the paper reports in
// Fig. 9. With -kind dimacs it writes the network itself as DIMACS
// .gr/.co files instead, to inspect, reuse, or feed to other tools
// (including back into fannr via -gr/-co).
//
// Examples:
//
//	fannr-index -dataset NW -scale 0.0625 -kind phl -out nw.phl
//	fannr-index -gr nw.gr -co nw.co -kind gtree -out nw.gtree
//	fannr-index -dataset NW -kind all -out nw       # nw.phl nw.gtree nw.ch
//	fannr-index -in old.phl -kind phl -out nw.phl   # convert v3 -> v4
//	fannr-index -dataset DE -scale 0.0625 -kind dimacs -out de   # de.gr de.co
//
// With -in, an existing index file is converted to the current on-disk
// format (v4, mmap-able) instead of being rebuilt. G-tree conversion
// still needs the graph flags, because a G-tree file stores only what
// the graph cannot reproduce.
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

func main() {
	var (
		dataset = flag.String("dataset", "NW", "Table III dataset name (synthetic)")
		scale   = flag.Float64("scale", 1.0/64, "dataset scale")
		grFile  = flag.String("gr", "", "DIMACS .gr file (overrides -dataset)")
		coFile  = flag.String("co", "", "DIMACS .co coordinate file")
		kind    = flag.String("kind", "all", "index kind: phl | gtree | ch | all, or dimacs for the network itself")
		out     = flag.String("out", "index", "output path (suffixes added for -kind all and dimacs)")
		leaf    = flag.Int("gtree-leaf", 256, "G-tree max leaf size (tau)")
		workers = flag.Int("workers", 0, "index-build workers (0 = GOMAXPROCS, 1 = sequential)")
		in      = flag.String("in", "", "existing index file to convert to the current format instead of rebuilding (requires a single -kind; gtree also needs the graph flags)")
	)
	flag.Parse()
	if err := run(*dataset, *scale, *grFile, *coFile, *kind, *out, *leaf, *workers, *in); err != nil {
		fmt.Fprintln(os.Stderr, "fannr-index:", err)
		os.Exit(1)
	}
}

func run(dataset string, scale float64, grFile, coFile, kind, out string, leaf, workers int, in string) error {
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

	if in != "" {
		return convert(in, kind, out, dataset, scale, grFile, coFile, save)
	}

	g, err := workload.LoadNetwork(dataset, scale, grFile, coFile)
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

	wants := func(k string) bool { return kind == k || kind == "all" }
	suffix := func(k string) string {
		if kind == "all" {
			return out + "." + k
		}
		return out
	}
	did := false
	if wants("phl") {
		did = true
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
	if wants("gtree") {
		did = true
		if err := save(suffix("gtree"), func(w io.Writer) (int64, error) {
			tr, err := fannr.BuildGTree(g, fannr.GTreeOptions{MaxLeafSize: leaf, Workers: workers})
			if err != nil {
				return 0, err
			}
			return tr.Stats().MemoryBytes, tr.Save(w)
		}); err != nil {
			return err
		}
	}
	if wants("ch") {
		did = true
		if err := save(suffix("ch"), func(w io.Writer) (int64, error) {
			ix, err := fannr.BuildCH(g, fannr.CHOptions{Workers: workers})
			if err != nil {
				return 0, err
			}
			return ix.MemoryBytes(), ix.Save(w)
		}); err != nil {
			return err
		}
	}
	if !did {
		return fmt.Errorf("unknown index kind %q", kind)
	}
	return nil
}

// convert reads an existing index file (current or previous format) and
// rewrites it in the current format, so operators upgrade files in
// place instead of paying the full rebuild.
func convert(in, kind, out string, dataset string, scale float64, grFile, coFile string,
	save func(string, func(io.Writer) (int64, error)) error) error {
	switch kind {
	case "phl":
		ix, err := fannr.LoadPHL(in, fannr.LoadOptions{})
		if err != nil {
			return fmt.Errorf("converting %s: %w", in, err)
		}
		defer ix.Close()
		fmt.Printf("converting %s (~%.1f MB hub labels: %d entries, %.1f per node)\n", in,
			float64(ix.MemoryBytes())/1e6, ix.Entries(), ix.AvgLabelSize())
		return save(out, func(w io.Writer) (int64, error) { return ix.MemoryBytes(), ix.Save(w) })
	case "gtree":
		g, err := workload.LoadNetwork(dataset, scale, grFile, coFile)
		if err != nil {
			return err
		}
		tr, err := fannr.LoadGTree(in, g, fannr.LoadOptions{})
		if err != nil {
			return fmt.Errorf("converting %s: %w", in, err)
		}
		defer tr.Close()
		fmt.Printf("converting %s (~%.1f MB G-tree over %s)\n", in,
			float64(tr.Stats().MemoryBytes)/1e6, g.Name())
		return save(out, func(w io.Writer) (int64, error) { return tr.Stats().MemoryBytes, tr.Save(w) })
	case "ch":
		f, err := os.Open(in)
		if err != nil {
			return fmt.Errorf("converting: %w", err)
		}
		defer f.Close()
		ix, err := fannr.ReadCH(f)
		if err != nil {
			return fmt.Errorf("converting %s: %w", in, err)
		}
		fmt.Printf("converting %s (~%.1f MB contraction hierarchy)\n", in, float64(ix.MemoryBytes())/1e6)
		return save(out, func(w io.Writer) (int64, error) { return ix.MemoryBytes(), ix.Save(w) })
	default:
		return fmt.Errorf("-in needs a single -kind (phl | gtree | ch), got %q", kind)
	}
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
