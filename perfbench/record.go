package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Record is one run's result as written to disk: the result line plus the
// host it was measured on and the run's parameters.
type Record struct {
	Host      Host              `json:"host"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

func (r Record) Line() resultLine {
	return resultLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

func writeRecord(path string, r Record) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (Record, error) {
	var r Record
	b, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// boundedMetric is an end-to-end metric of BENCHMARK.json.
type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the comparison reads.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// Exit codes of compare.
const (
	compareOK            = 0
	compareRegressed     = 1
	compareNotComparable = 3
)

// compare judges fresh against old. Records from different hosts, or of
// different workloads or modes, are not comparable: the verdict is neither
// pass nor fail. Otherwise an end-to-end metric that got worse by more than
// its bound is a regression; per-layer metrics are listed without a
// verdict.
func compare(old, fresh Record, bf benchmarkFile, w io.Writer) int {
	if old.Host != fresh.Host {
		fmt.Fprintf(w, "not comparable: measured on different hosts\n  old: %s\n  fresh: %s\n", old.Host, fresh.Host)
		return compareNotComparable
	}
	if old.Workload != fresh.Workload || old.Trace != fresh.Trace || old.Seconds != fresh.Seconds {
		fmt.Fprintf(w, "not comparable: %s trace %d %ds against %s trace %d %ds\n",
			old.Workload, old.Trace, old.Seconds, fresh.Workload, fresh.Trace, fresh.Seconds)
		return compareNotComparable
	}
	bounds := make(map[string]float64)
	better := make(map[string]string)
	for _, m := range bf.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	for _, m := range bf.PerLayer {
		better[m.Name] = m.Better
	}
	names := make([]string, 0, len(fresh.Metrics))
	for n := range fresh.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	code := compareOK
	for _, n := range names {
		o, ok := old.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "  %-34s fresh metric\n", n)
			continue
		}
		v := fresh.Metrics[n].Value
		change := 0.0
		if o.Value != 0 {
			change = (v - o.Value) / o.Value
		}
		worse := change
		if better[n] == "higher" {
			worse = -change
		}
		verdict := ""
		if bound, gated := bounds[n]; gated {
			verdict = "ok"
			if worse > bound {
				verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*bound)
				code = compareRegressed
			}
		}
		fmt.Fprintf(w, "  %-34s %12.6g -> %12.6g %-6s %+7.2f%% %s\n", n, o.Value, v, fresh.Metrics[n].Unit, 100*change, verdict)
	}
	if !fresh.Correct {
		fmt.Fprintln(w, "fresh run has oracle mismatches")
		code = compareRegressed
	}
	return code
}

func compareFiles(oldPath, newPath, benchPath string, stdout, stderr io.Writer) int {
	old, err := readRecord(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	fresh, err := readRecord(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return compare(old, fresh, bf, stdout)
}
