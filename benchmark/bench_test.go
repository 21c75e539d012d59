package main

import (
	"slices"
	"testing"
)

// TestReducedRunEmitsEveryDeclaredMetric is a seconds-long reduced run
// of all four workloads, untraced and traced: every metric BENCHMARK.json
// names must be emitted once per workload with its declared unit, the
// result line must carry exactly the declared set, and nothing may fail.
func TestReducedRunEmitsEveryDeclaredMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second each")
	}
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	declared := func(ms []specMetric) []string {
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.Name
		}
		return names
	}
	if got := declared(spec.EndToEnd); !slices.Equal(got, endToEndMetrics) {
		t.Errorf("end_to_end of BENCHMARK.json = %v, the benchmark reports %v", got, endToEndMetrics)
	}
	if got := declared(spec.PerLayer); !slices.Equal(got, perLayerMetrics) {
		t.Errorf("per_layer of BENCHMARK.json = %v, the benchmark reports %v", got, perLayerMetrics)
	}
	for i := range workloads {
		w := &workloads[i]
		if raceEnabled && w.name == "ordered_pertuple" {
			// Restore on an engine with Adapt.Enable races inside the
			// engine: adapt.Controller.Run samples the router's load
			// counters while Router.RestoreState copies over them. The
			// benchmark cannot fix that from outside, so under -race the
			// recovery phase of this one workload keeps it out.
			t.Logf("%s skipped under -race: the engine's Restore races its adaptive controller", w.name)
			continue
		}
		for _, traced := range []bool{false, true} {
			group := spec.EndToEnd
			if traced {
				group = spec.PerLayer
			}
			rep, err := runWorkload(w, options{seed: 3, seconds: 1.2, traced: traced, dir: t.TempDir(), scale: 8})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.Failed != 0 || !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: fail_frac %g (%d of %d): %v", w.name, traced, rep.FailFrac, rep.Failed, rep.Attempted, rep.Failures)
			}
			line := rep.resultMetrics()
			if len(line) != len(group) {
				t.Errorf("%s traced=%v: result line carries %d metrics, BENCHMARK.json declares %d", w.name, traced, len(line), len(group))
			}
			for _, m := range group {
				got, ok := line[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not emitted", w.name, traced, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json declares %q", w.name, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, must be positive", w.name, m.Name, got.Value)
				}
			}
		}
	}
}
