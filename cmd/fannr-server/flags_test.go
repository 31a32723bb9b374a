package main

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"fannr/internal/core"
)

// flagSurface lists a FlagSet's flags as name=default, sorted.
func flagSurface(fs *flag.FlagSet) []string {
	var out []string
	fs.VisitAll(func(f *flag.Flag) { out = append(out, f.Name+"="+f.DefValue) })
	return out
}

// TestFlagSurface pins the command line: a flag added, dropped or given
// another default must edit this list. bench/ launches the binary with
// -addr -engines -phl-index -gtree-index -mmap.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"addr=:8080",
		"breaker-cooldown=5s",
		"breaker-threshold=0",
		"cache-entries=4096",
		"coalesce=true",
		"dataset=NW",
		"drain-timeout=15s",
		"engines=PHL",
		"fallback=",
		"gtree-index=",
		"log=false",
		"max-inflight=0",
		"mmap=auto",
		"phl-index=",
		"pprof=false",
		"query-timeout=10s",
		"queue-depth=0",
		"scale=0.015625",
	}
	if got := flagSurface(newFlags(&config{})); !slices.Equal(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}

// TestIndexFileNeedsItsEngine pins that an index file flag whose index
// -engines does not list fails at startup, naming both flags, instead of
// starting without that index.
func TestIndexFileNeedsItsEngine(t *testing.T) {
	for _, tc := range []struct {
		cfg  config
		flag string
	}{
		{config{engines: "PHL", phlIndex: "nw.phl", gtreeIndex: "nw.gtree"}, "-gtree-index"},
		{config{engines: "GTree", gtreeIndex: "nw.gtree", phlIndex: "nw.phl"}, "-phl-index"},
	} {
		kinds, err := core.ParseIndexes(tc.cfg.engines)
		if err != nil {
			t.Fatal(err)
		}
		_, err = indexFiles(tc.cfg, kinds)
		if err == nil || !strings.Contains(err.Error(), tc.flag) || !strings.Contains(err.Error(), "-engines") {
			t.Fatalf("-engines %s with %s: err = %v, want one naming %s and -engines", tc.cfg.engines, tc.flag, err, tc.flag)
		}
	}
	for _, tc := range []struct {
		engines string
		want    []core.Index
	}{
		{"PHL,GTree", []core.Index{core.PHLIndex, core.GTreeIndex}},
		// A repeated name lists its index once, in first-seen order:
		// listed twice, nw.phl would be mapped and then fail to register
		// as a second "phl" source.
		{"GTree,PHL,INE,PHL,GTree", []core.Index{core.GTreeIndex, core.PHLIndex}},
	} {
		cfg := config{engines: tc.engines, phlIndex: "nw.phl", gtreeIndex: "nw.gtree"}
		kinds, err := core.ParseIndexes(cfg.engines)
		if err != nil || !slices.Equal(kinds, tc.want) {
			t.Fatalf("-engines %s: indexes %v, err %v; want %v", tc.engines, kinds, err, tc.want)
		}
		files, err := indexFiles(cfg, kinds)
		if err != nil || files[core.PHLIndex] != "nw.phl" || files[core.GTreeIndex] != "nw.gtree" {
			t.Fatalf("-engines %s: files %v, err %v", tc.engines, files, err)
		}
	}
}
