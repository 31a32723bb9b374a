// Service: FANN_R as a location-based service — the deployment shape the
// paper's introduction motivates. The example starts the HTTP query
// server in-process, then acts as a client: it asks where to place a
// delivery hub that can serve 60% of today's orders with the smallest
// worst-case drive.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"fannr"
)

func main() {
	g, err := fannr.LoadDataset("COL", 1.0/64)
	if err != nil {
		log.Fatal(err)
	}
	labels, err := fannr.BuildPHL(g, fannr.PHLOptions{})
	if err != nil {
		log.Fatal(err)
	}
	srv, err := fannr.NewQueryServer(g, fannr.ServerOptions{Indexes: fannr.Indexes{PHL: labels}})
	if err != nil {
		log.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil {
			log.Print(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("query server for %s (%d nodes) listening at %s\n\n", g.Name(), g.NumNodes(), base)

	// The "application": depots are candidate hub sites, orders arrive in
	// clusters (neighborhoods).
	gen := fannr.NewWorkloadGenerator(g, 33)
	depots := gen.UniformP(0.004)
	orders := gen.ClusteredQ(0.5, 60, 4)

	reqBody, _ := json.Marshal(fannr.FANNRequest{
		P: depots, Q: orders, Phi: 0.6, Agg: "max", Algo: "ier", Engine: "IER-PHL", K: 3,
	})
	start := time.Now()
	resp, err := http.Post(base+"/fann", "application/json", bytes.NewReader(reqBody))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out fannr.FANNResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("POST /fann (%d depots, %d orders, phi=0.6, top-3) -> HTTP %d in %s\n",
		len(depots), len(orders), resp.StatusCode, time.Since(start).Round(time.Millisecond))
	fmt.Printf("server-side query time: %dus\n\n", out.Micros)
	for i, a := range out.Answers {
		fmt.Printf("option %d: hub at node %d, worst covered order %.0f away, covers %d orders\n",
			i+1, a.P, a.Dist, len(a.Subset))
	}
}
