package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"handshakejoin"
	"handshakejoin/internal/workload"
)

// shardExperiment measures the live (wall-clock) scaling of the
// hash-sharded engine layer: aggregate throughput and tail latency of
// the equi-join workload at a fixed total worker budget, with the
// budget split across 1..N shards. Unlike the fig*/table2 experiments
// this is not a reproduction of a paper figure — it is the repository's
// own scaling curve beyond the paper (the paper scales one pipeline;
// sharding multiplies pipelines), tracked across PRs via
// BENCH_shard.json.
type shardRow struct {
	Shards          int     `json:"shards"`
	WorkersPerShard int     `json:"workers_per_shard"`
	TuplesPerSec    float64 `json:"tuples_per_sec"`
	P50LatencyMs    float64 `json:"p50_latency_ms"`
	P99LatencyMs    float64 `json:"p99_latency_ms"`
	Results         uint64  `json:"results"`
}

type shardReport struct {
	Experiment string `json:"experiment"`
	// Cores and GOMAXPROCS say what box the rows come from: at a fixed
	// worker budget the curve is a statement about the machine as much
	// as about the engine.
	Cores           int        `json:"cores"`
	GOMAXPROCS      int        `json:"gomaxprocs"`
	TotalWorkers    int        `json:"total_workers"`
	WindowCount     int        `json:"window_count"`
	Batch           int        `json:"batch"`
	TuplesPerStream int        `json:"tuples_per_stream"`
	Rows            []shardRow `json:"rows"`
}

func shardScaling() error {
	const totalWorkers = 8
	tuples := 400000
	if *quick {
		tuples = 80000
	}
	rep := shardReport{
		Experiment:      "shard-scaling",
		Cores:           runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		TotalWorkers:    totalWorkers,
		WindowCount:     2048,
		Batch:           64,
		TuplesPerStream: tuples,
	}
	fmt.Printf("# live equi-join scaling, %d total workers, %d tuples/stream, count windows %d\n",
		totalWorkers, tuples, rep.WindowCount)
	emit("shards", "workers/shard", "tuples/sec", "p50(ms)", "p99(ms)", "results")
	for _, shards := range shardList(totalWorkers) {
		row, err := runShardRow(totalWorkers, shards, rep.WindowCount, rep.Batch, tuples)
		if err != nil {
			return err
		}
		rep.Rows = append(rep.Rows, row)
		emit(row.Shards, row.WorkersPerShard,
			fmt.Sprintf("%.0f", row.TuplesPerSec),
			fmt.Sprintf("%.3f", row.P50LatencyMs),
			fmt.Sprintf("%.3f", row.P99LatencyMs),
			row.Results)
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
		fmt.Printf("# wrote %s\n", *jsonOut)
	}
	return nil
}

// shardList parses -shards, dropping counts that do not divide the
// worker budget.
func shardList(totalWorkers int) []int {
	var out []int
	for _, n := range parseInts(*shardsFlag) {
		if n > 0 && totalWorkers%n == 0 {
			out = append(out, n)
		} else {
			fmt.Fprintf(os.Stderr, "llhjbench shard: ignoring shard count %d (must divide the %d-worker budget)\n", n, totalWorkers)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "llhjbench shard: no usable -shards values, using the default 1,2,4,8\n")
		out = []int{1, 2, 4, 8}
	}
	return out
}

func runShardRow(totalWorkers, shards, window, batch, tuples int) (shardRow, error) {
	var mu sync.Mutex
	var lats []int64
	var results uint64
	cfg := handshakejoin.Config[workload.RTuple, workload.STuple]{
		Workers:     totalWorkers / shards,
		Shards:      shards,
		Predicate:   workload.EquiPredicate,
		WindowR:     handshakejoin.Window{Count: window},
		WindowS:     handshakejoin.Window{Count: window},
		Batch:       batch,
		MaxInFlight: 8,
		KeyR:        workload.RKey,
		KeyS:        workload.SKey,
		Obs:         obsCfg(),
		OnOutput: func(it handshakejoin.Item[workload.RTuple, workload.STuple]) {
			if it.Punct {
				return
			}
			p := it.Result.Pair
			in := p.R.Wall
			if p.S.Wall > in {
				in = p.S.Wall
			}
			mu.Lock()
			results++
			if results%8 == 0 { // sample the latency distribution
				lats = append(lats, it.Result.At-in)
			}
			mu.Unlock()
		},
	}
	eng, err := handshakejoin.New(cfg)
	if err != nil {
		return shardRow{}, err
	}
	gen := workload.NewGenerator(workload.DefaultConfig(1e6))
	start := time.Now()
	for i := 0; i < tuples; i++ {
		r := gen.NextR()
		s := gen.NextS()
		if err := eng.PushR(r.Payload, r.TS); err != nil {
			return shardRow{}, err
		}
		if err := eng.PushS(s.Payload, s.TS); err != nil {
			return shardRow{}, err
		}
	}
	elapsed := time.Since(start)
	if err := eng.Close(); err != nil {
		return shardRow{}, err
	}
	row := shardRow{
		Shards:          shards,
		WorkersPerShard: totalWorkers / shards,
		TuplesPerSec:    float64(2*tuples) / elapsed.Seconds(),
		Results:         eng.Stats().Results,
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		row.P50LatencyMs = float64(lats[len(lats)/2]) / 1e6
		row.P99LatencyMs = float64(lats[len(lats)*99/100]) / 1e6
	}
	return row, nil
}

func parseInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		var n int
		if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &n); err == nil {
			out = append(out, n)
		}
	}
	return out
}
