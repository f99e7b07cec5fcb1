// Server: the condensation approach as a running data-collection service.
// The example builds a sharded engine (four independent condenser shards
// behind deterministic record routing) with the Condenser, serves it over
// HTTP on a loopback port, plays the roles of data contributors (posting
// batches of records) and of an analyst (fetching merged and per-shard
// privacy statistics and an anonymized snapshot), then checkpoints the
// server state — all over the same HTTP API that cmd/condenserd serves in
// production with -shards 4.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"condensation/internal/core"
	"condensation/internal/datagen"
	"condensation/internal/rng"
	"condensation/internal/server"
)

func main() {
	condenser, err := core.NewCondenser(20, core.WithSeed(5))
	if err != nil {
		log.Fatal(err)
	}
	eng, err := condenser.Sharded(7, 4)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := httpSrv.Serve(ln); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	base := "http://" + ln.Addr().String()
	fmt.Printf("condensation server listening on %s\n", base)

	// Contributors: stream the Abalone-equivalent measurements in batches.
	ds := datagen.Abalone(5)
	const batch = 500
	for start := 0; start < 2000; start += batch {
		payload := map[string][][]float64{"records": {}}
		for _, x := range ds.X[start : start+batch] {
			payload["records"] = append(payload["records"], []float64(x))
		}
		body, err := json.Marshal(payload)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/records", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var rr struct {
			Accepted int `json:"accepted"`
			Groups   int `json:"groups"`
			Splits   int `json:"splits"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			log.Fatal(err)
		}
		resp.Body.Close()
		fmt.Printf("posted %d records → %d groups after %d splits\n", rr.Accepted, rr.Groups, rr.Splits)
	}

	// Analyst: check the privacy audit, then pull an anonymized snapshot.
	resp, err := http.Get(base + "/v1/stats?by_shard")
	if err != nil {
		log.Fatal(err)
	}
	var stats struct {
		Shards       int     `json:"shards"`
		Groups       int     `json:"groups"`
		Records      int     `json:"records"`
		MinGroupSize int     `json:"min_group_size"`
		MaxGroupSize int     `json:"max_group_size"`
		AvgGroupSize float64 `json:"avg_group_size"`
		KSatisfied   bool    `json:"k_satisfied"`
		ByShard      []struct {
			Shard      int  `json:"shard"`
			Groups     int  `json:"groups"`
			Records    int  `json:"records"`
			KSatisfied bool `json:"k_satisfied"`
		} `json:"by_shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("audit: %d records in %d groups over %d shards, sizes [%d, %d], k satisfied: %v\n",
		stats.Records, stats.Groups, stats.Shards, stats.MinGroupSize, stats.MaxGroupSize, stats.KSatisfied)
	for _, sh := range stats.ByShard {
		fmt.Printf("  shard %d: %d records in %d groups, k satisfied: %v\n",
			sh.Shard, sh.Records, sh.Groups, sh.KSatisfied)
	}

	resp, err = http.Get(base + "/v1/snapshot?seed=11")
	if err != nil {
		log.Fatal(err)
	}
	var snap struct {
		Records [][]float64 `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("anonymized snapshot: %d records (first: %.3v)\n", len(snap.Records), snap.Records[0])

	// Operator: checkpoint the aggregate state (the only state there is).
	resp, err = http.Get(base + "/v1/checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	cond, err := core.ReadCondensation(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: %d groups, re-synthesizable offline (%d records)\n",
		cond.NumGroups(), cond.TotalCount())

	// The checkpoint alone regenerates anonymized data — no server needed.
	offline, err := cond.Synthesize(rng.New(99))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("offline synthesis from checkpoint: %d records\n", len(offline))

	if err := httpSrv.Close(); err != nil {
		log.Fatal(err)
	}
}
