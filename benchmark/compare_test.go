package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// writeSet writes one -out file holding the given reports.
func writeSet(t *testing.T, path string, reps ...report) {
	t.Helper()
	var b []byte
	for _, rep := range reps {
		line, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		b = append(append(b, line...), '\n')
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareFlagsRegressionsAndMissingRows(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(spec, []byte(`{"end_to_end": [
		{"name": "sat_tps", "unit": "tuples/s", "better": "higher", "bound": 0.1},
		{"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1}],
		"per_layer": [{"name": "trace.sat_tps", "unit": "tuples/s", "better": "higher"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	untraced := func(workload string, tps, lat float64) report {
		return report{Workload: workload, Metrics: map[string]metric{
			"sat_tps": {tps, "tuples/s"}, "lat_ms": {lat, "ms"}}}
	}
	// A traced run is 40 % slower; merged into the untraced rows it would
	// drag their medians outside the bound.
	traced := report{Workload: "x", Traced: true, Metrics: map[string]metric{"trace.sat_tps": {60, "tuples/s"}}}
	noTps := untraced("x", 100, 1)
	delete(noTps.Metrics, "sat_tps")

	base := filepath.Join(dir, "a.jsonl")
	writeSet(t, base, untraced("x", 100, 1), untraced("y", 100, 1), traced)
	for _, c := range []struct {
		name     string
		b        []report
		worse    bool // b is outside a bound of a
		lostARow bool
	}{
		{"same", []report{untraced("x", 100, 1), untraced("y", 100, 1), traced}, false, false},
		{"inside the bound", []report{untraced("x", 95, 1.05), untraced("y", 104, 0.96), traced}, false, false},
		{"throughput outside", []report{untraced("x", 85, 1), untraced("y", 100, 1), traced}, true, false},
		{"latency outside", []report{untraced("x", 100, 1), untraced("y", 100, 1.2), traced}, true, false},
		{"metric lost", []report{noTps, untraced("y", 100, 1), traced}, false, true},
		{"workload lost", []report{untraced("x", 100, 1), traced}, false, true},
		{"traced runs lost", []report{untraced("x", 100, 1), untraced("y", 100, 1)}, false, true},
	} {
		other := filepath.Join(dir, "b.jsonl")
		writeSet(t, other, c.b...)
		for _, paths := range [][2]string{{base, other}, {other, base}} {
			ok, err := compareFiles(io.Discard, spec, paths[0], paths[1])
			if err != nil {
				t.Fatal(err)
			}
			// A lost row fails in either direction, a regression only
			// when the worse set is the second.
			want := !c.lostARow && !(c.worse && paths[1] == other)
			if ok != want {
				t.Errorf("%s (%s vs %s): ok = %v, want %v", c.name, filepath.Base(paths[0]), filepath.Base(paths[1]), ok, want)
			}
		}
	}
}
