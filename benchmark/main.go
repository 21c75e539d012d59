// Command benchmark is the repository's one benchmark: open-loop result
// latency and saturated throughput of the public handshakejoin API on
// four workloads that stress different layers, plus a traced run that
// replays the same inputs through each layer's exported functions. See
// README.md in this directory and BENCHMARK.json at the repository root.
//
//	bash benchmark/run.sh -workload ingest_batch -seed 1 -seconds 26 -trace 0
//	bash benchmark/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: ingest_batch, band_scan, ordered_pertuple or durable_batch")
		seed    = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 26, "measured seconds, split over the timed phases")
		trace   = flag.Int("trace", 0, "1 = traced run: spans around every API call plus the layer ladder; reports the per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "scratch directory for WAL files and the span dump (created; run files are removed)")
		out     = flag.String("out", "", "append the full report as one JSON line to this file (input to -compare)")
		compare = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.jsonl b.jsonl")
		spec    = flag.String("spec", "BENCHMARK.json", "benchmark definition: -compare reads the metric bounds from it")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		ok, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	runDir, err := makeRunDir(*dir)
	if err != nil {
		fatal(err)
	}
	rep, err := runWorkload(w, options{
		seed: *seed, seconds: *seconds, traced: *trace != 0, dir: runDir, scale: 1,
		spans: filepath.Join(*dir, "trace-"+w.name+".json"),
	})
	if rmErr := os.RemoveAll(runDir); err == nil {
		err = rmErr
	}
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.resultMetrics()})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// makeRunDir creates a directory private to this process under dir.
func makeRunDir(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "run-")
}

func appendReport(path string, rep *report) (err error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	_, err = f.Write(append(b, '\n'))
	return err
}

// resultMetrics is the metric set of the result line: the end-to-end
// metrics of an untraced run, the per-layer metrics of a traced one.
// Everything else a run measured stays in the full report.
func (rep *report) resultMetrics() map[string]metric {
	names := endToEndMetrics
	if rep.Traced {
		names = perLayerMetrics
	}
	m := make(map[string]metric, len(names))
	for _, n := range names {
		if v, ok := rep.Metrics[n]; ok {
			m[n] = v
		}
	}
	return m
}

// print writes the human-readable report: environment, every metric
// with its unit, sample counts, and the failure ledger.
func (rep *report) print(f *os.File) {
	env, _ := json.Marshal(rep.Env) // a struct of plain fields always marshals
	fmt.Fprintf(f, "# workload %s traced=%v\n# env %s\n", rep.Workload, rep.Traced, env)
	for _, n := range rep.order {
		m := rep.Metrics[n]
		fmt.Fprintf(f, "%-36s %16.6g %s", n, m.Value, m.Unit)
		if s, ok := rep.Samples[n]; ok {
			fmt.Fprintf(f, "   (n=%d, %d beyond)", s[0], s[1])
		}
		if w, ok := rep.Windows[n]; ok {
			fmt.Fprintf(f, "   windows %.6g", w)
		}
		fmt.Fprintln(f)
	}
	kinds := make([]string, 0, len(rep.Failures))
	for k := range rep.Failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Fprintf(f, "fail_frac %g = %d failed / %d attempted", rep.FailFrac, rep.Failed, rep.Attempted)
	for _, k := range kinds {
		if rep.Failures[k] != 0 {
			fmt.Fprintf(f, " %s=%d", k, rep.Failures[k])
		}
	}
	fmt.Fprintln(f)
}
