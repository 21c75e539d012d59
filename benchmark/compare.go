package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads back.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// runKey names one kind of run: a traced and an untraced run of one
// workload report different metrics and are compared apart.
type runKey struct {
	workload string
	traced   bool
}

func (k runKey) String() string {
	if k.traced {
		return k.workload + " (traced)"
	}
	return k.workload
}

// readReports reads a file of -out lines and groups the metric values
// by workload and trace mode.
func readReports(path string) (map[runKey]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[runKey]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		k := runKey{rep.Workload, rep.Traced}
		m := out[k]
		if m == nil {
			m = map[string][]float64{}
			out[k] = m
		}
		for name, v := range rep.Metrics {
			m[name] = append(m[name], v.Value)
		}
	}
	return out, sc.Err()
}

// worseBy returns how much worse b is than a as a share of a, in the
// metric's own direction; negative means better.
func worseBy(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareFiles prints, per metric and kind of run, both sets' medians,
// the relative difference and the bound, and reports whether b holds
// every kind of run a holds and every end-to-end metric of b is there
// and within its bound of a. A workload or a bounded metric that only
// one side reports is a failure, not a skipped row: a run set that lost
// sat_tps must not pass.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readReports(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReports(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("%s or %s holds no report", pathA, pathB)
	}
	seen := map[runKey]bool{}
	var keys []runKey
	for _, set := range []map[runKey]map[string][]float64{a, b} {
		for k := range set {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return !keys[i].traced && keys[j].traced
	})
	ok := true
	fmt.Fprintf(w, "%-27s %-34s %14s %14s %9s %7s\n", "workload", "metric", "median a", "median b", "worse by", "bound")
	for _, k := range keys {
		if a[k] == nil || b[k] == nil {
			only := pathA
			if a[k] == nil {
				only = pathB
			}
			fmt.Fprintf(w, "%-27s only in %s  MISSING\n", k, only)
			ok = false
			continue
		}
		for _, group := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range group {
				va, vb := a[k][m.Name], b[k][m.Name]
				if len(va) == 0 || len(vb) == 0 {
					// An untraced run reports every bounded metric, a
					// traced one none of them.
					if m.Bound > 0 && (!k.traced || len(va) != len(vb)) {
						fmt.Fprintf(w, "%-27s %-34s %14d %14d values  MISSING\n", k, m.Name, len(va), len(vb))
						ok = false
					}
					continue
				}
				ma, mb := median(va), median(vb)
				d := worseBy(ma, mb, m.Better)
				verdict := ""
				bound := "-"
				if m.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
					if d > m.Bound {
						verdict = "  OUTSIDE"
						ok = false
					}
				}
				fmt.Fprintf(w, "%-27s %-34s %14.6g %14.6g %+8.1f%% %7s%s\n", k, m.Name, ma, mb, 100*d, bound, verdict)
			}
		}
	}
	return ok, nil
}
