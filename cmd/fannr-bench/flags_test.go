package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagSurface pins the command line: a flag added, dropped or given
// another default must edit this list. make figures runs the binary with
// -exp all.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"chart=false",
		"csv=",
		"dataset=NW",
		"exp=",
		"list=false",
		"phl-budget=0",
		"queries=8",
		"scale=0.0625",
		"seed=1",
		"timeout=20s",
	}
	var got []string
	newFlags(&config{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}
