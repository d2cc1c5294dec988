package main

import (
	"regexp"
	"testing"
)

// TestBenchmarkFileMatchesCatalog holds BENCHMARK.json and the metric
// catalog together: same names, units and directions, in the same order,
// and every workload the file names is one the command runs.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalog %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %s %s %s, catalog %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %s %s %s, catalog %s %s %s", i, m.Name, m.Unit, m.Better, d.Name, d.Unit, d.Better)
		}
		if d.Target == "" {
			t.Errorf("%s has no target", d.Name)
		}
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" {
			t.Errorf("workload %d: %q (why %q), want %q", i, w.Name, w.Why, workloadNames[i])
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", d.Name, d.Unit)
		}
		seen[d.Name] = true
	}
}
