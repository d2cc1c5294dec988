package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"

	"treeaa/internal/session"
	"treeaa/internal/sim"
)

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, the last one serves the load.
const setupRepeats = 9

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
}

// warmup is the discarded load before the timed window: a cold first
// window ran at 203 sessions/s against 361 warm.
func warmup(seconds time.Duration) time.Duration {
	return min(max(seconds/5, time.Second), 2*time.Second)
}

// tally counts outcomes against the oracle.
type tally struct {
	attempted, decided, rejected, failed, expired, mismatched int
}

func (t *tally) reject() { t.attempted++; t.rejected++ }

// judge counts one outcome: decided and DeepEqual to the sim.Run oracle, or
// one of the failure kinds. It reports whether the session counts toward
// goodput.
func (t *tally) judge(out session.Outcome, want *sim.Result) bool {
	t.attempted++
	switch {
	case out.State == session.StateExpired:
		t.expired++
	case out.State != session.StateDecided:
		t.failed++
	case want == nil || !reflect.DeepEqual(out.Result, want):
		t.mismatched++
	default:
		t.decided++
		return true
	}
	return false
}

func (t *tally) failures() int { return t.rejected + t.failed + t.expired + t.mismatched }

// failedRatio is rejected + failed + expired + mismatched over attempted.
func (t *tally) failedRatio() float64 {
	if t.attempted == 0 {
		return 1
	}
	return float64(t.failures()) / float64(t.attempted)
}

// correct is false as soon as one decided result differs from the oracle.
func (t *tally) correct() bool { return t.mismatched == 0 }

func (t *tally) String() string {
	return fmt.Sprintf("%d attempted, %d decided, %d rejected, %d failed, %d expired, %d oracle mismatches (failed_ratio %.4f)",
		t.attempted, t.decided, t.rejected, t.failed, t.expired, t.mismatched, t.failedRatio())
}

// result is what one run prints.
type result struct {
	cfg     runConfig
	tally   *tally
	metrics map[string]float64
	text    strings.Builder
}

func newResult(cfg runConfig) *result { return &result{cfg: cfg} }

func (r *result) printf(format string, args ...any) { fmt.Fprintf(&r.text, format, args...) }

// writeTrace writes the spans of a traced run under the output directory.
func (r *result) writeTrace(tr *Tracer) error {
	path := filepath.Join(r.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.jsonl", r.cfg.workload, r.cfg.seed))
	if err := tr.WriteFile(path); err != nil {
		return err
	}
	r.printf("spans: %d written to %s\n", tr.Len(), path)
	return nil
}

// e2e holds the end-to-end metrics of one window, and its latency median
// and tail, which are printed but not gated.
type e2e struct {
	setup, low, goodput, cpu, rss float64 // low is the latency p5
	p50, tail                     float64
	tailErr                       error // the tail is unresolved
}

// tailText prints the tail, or why it is unresolved.
func (e e2e) tailText() string {
	if e.tailErr != nil {
		return e.tailErr.Error()
	}
	return fmt.Sprintf("%.3f ms", e.tail)
}

func (e e2e) metrics() map[string]float64 {
	return map[string]float64{
		"setup_s":            e.setup,
		"latency_p5_ms":      e.low,
		"goodput_sps":        e.goodput,
		"cpu_ms_per_session": e.cpu,
		"max_rss_mb":         e.rss,
	}
}

// tailQuantile returns the p-th percentile or an error naming the shortfall,
// so an unresolved tail, upper or lower, never reaches the result as a
// number.
func tailQuantile(name string, s Sample, p float64) (float64, error) {
	v, ok := s.Quantile(p)
	if !ok {
		return 0, fmt.Errorf("%s p%g unresolved: %d samples, need %d (highest resolved p%g)",
			name, p, len(s), needed(p), s.HighestResolved())
	}
	return v, nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func fmtSeconds(s float64) string {
	return time.Duration(s * float64(time.Second)).Round(time.Microsecond).String()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // KiB on Linux
}

// rtSnapshot is the Go runtime's allocation and CPU-class counters.
type rtSnapshot struct {
	mallocs, heapBytes uint64
	gcCPU, allCPU      float64
}

var rtNames = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readRuntime() rtSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		samples[i].Name = n
	}
	rtmetrics.Read(samples)
	var cpu [2]float64
	for i, s := range samples {
		if s.Value.Kind() == rtmetrics.KindFloat64 {
			cpu[i] = s.Value.Float64()
		}
	}
	return rtSnapshot{mallocs: ms.Mallocs, heapBytes: ms.TotalAlloc, gcCPU: cpu[0], allCPU: cpu[1]}
}

func (a rtSnapshot) sub(b rtSnapshot) rtSnapshot {
	return rtSnapshot{a.mallocs - b.mallocs, a.heapBytes - b.heapBytes, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU}
}

// sampleGoroutines polls the goroutine count until the returned stop is
// called, which returns the peak.
func sampleGoroutines() (stop func() int) {
	quit := make(chan struct{})
	var wg sync.WaitGroup
	peak := runtime.NumGoroutine()
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peak = max(peak, runtime.NumGoroutine())
			}
		}
	}()
	return func() int {
		close(quit)
		wg.Wait()
		return peak
	}
}
