package main

import (
	"flag"
	"slices"
	"testing"
)

// TestFlagSurface pins the command line: a flag added, dropped or given
// another default must edit this list.
func TestFlagSurface(t *testing.T) {
	want := []string{
		"a=0.1",
		"agg=max",
		"algo=ier",
		"c=1",
		"co=",
		"d=0.001",
		"dataset=NW",
		"engine=PHL",
		"gr=",
		"k=1",
		"lonlat=false",
		"m=128",
		"phi=0.5",
		"scale=0.015625",
		"seed=1",
		"verify=false",
	}
	var got []string
	newFlags(&config{}).VisitAll(func(f *flag.Flag) { got = append(got, f.Name+"="+f.DefValue) })
	if !slices.Equal(got, want) {
		t.Fatalf("flags\n got %q\nwant %q", got, want)
	}
}
