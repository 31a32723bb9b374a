package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagSurface pins the command line: a flag added, dropped or given
// another default must edit this list. bench/ runs the binary with
// -kind and -out.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"co=",
		"dataset=NW",
		"gr=",
		"gtree-leaf=256",
		"kind=all",
		"out=index",
		"scale=0.015625",
		"workers=0",
	}
	var got []string
	newFlags(&config{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}
