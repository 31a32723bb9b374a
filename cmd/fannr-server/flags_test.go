package main

import (
	"flag"
	"slices"
	"testing"
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
