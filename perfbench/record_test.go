package main

import (
	"strings"
	"testing"
)

func sampleRecord(host Host, latency float64) Record {
	return Record{Host: host, Workload: "serve-steady", Seconds: 20, Correct: true,
		Metrics: map[string]Metric{"latency_p50_ms": {Value: latency, Unit: "ms"}, "goodput_sps": {Value: 150, Unit: "1/s"}}}
}

func TestCompare(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []boundedMetric{
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
		{Name: "goodput_sps", Unit: "1/s", Better: "higher", Bound: 0.1},
	}}
	a := Host{GOMAXPROCS: 2, NumCPU: 2, CPU: "x", Go: "go1.24.0", Kernel: "6"}
	b := a
	b.NumCPU, b.GOMAXPROCS = 1, 1

	var out strings.Builder
	if code := compare(sampleRecord(a, 10), sampleRecord(a, 10.5), bf, &out); code != compareOK {
		t.Errorf("5%% slower within a 10%% bound: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(sampleRecord(a, 10), sampleRecord(a, 12), bf, &out); code != compareRegressed || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("20%% slower past a 10%% bound: code %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(sampleRecord(a, 10), sampleRecord(b, 50), bf, &out); code != compareNotComparable || !strings.Contains(out.String(), "not comparable") {
		t.Errorf("different hosts: code %d\n%s", code, out.String())
	}
}
