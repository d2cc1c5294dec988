package main

import (
	"testing"
	"time"
)

func seq(n int) Sample {
	s := make(Sample, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so Quantile must sort
	}
	return s
}

func TestQuantileResolution(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},  // 10 samples above
		{999, 99, 990, false},  // 9 above: p99 needs 1000
		{200, 95, 190, true},   // p95 needs 200
		{199, 95, 190, false},  // 9 above
		{20, 50, 10, true},     // the median needs 20
		{19, 50, 10, false},    // 9 above
		{3000, 99, 2970, true}, // 30 above
		{201, 5, 11, true},     // 10 below: p5 needs 201
		{200, 5, 10, false},    // 9 below
	}
	for _, c := range cases {
		got, ok := seq(c.n).Quantile(c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("n=%d p%g: got %v resolved=%v, want %v resolved=%v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, ok := Sample(nil).Quantile(50); ok {
		t.Error("an empty sample resolved its median")
	}
}

func TestNeeded(t *testing.T) {
	for p, want := range map[float64]int{99: 1000, 95: 200, 50: 20, 5: 201} {
		if got := needed(p); got != want {
			t.Errorf("p%g needs %d samples, want %d", p, got, want)
		}
	}
}

func TestHighestResolved(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 98}, {200, 95}, {400, 97}, {19, 0}} {
		if got := seq(c.n).HighestResolved(); got != c.want {
			t.Errorf("n=%d: highest resolved p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestTailQuantileRefusesUnresolved(t *testing.T) {
	if _, err := tailQuantile("latency", seq(999), 99); err == nil {
		t.Fatal("p99 of 999 samples reported as a number")
	}
	if v, err := tailQuantile("latency", seq(1000), 99); err != nil || v != 990 {
		t.Fatalf("p99 of 1000 samples: %v, %v", v, err)
	}
}

func TestSelfTime(t *testing.T) {
	span := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested count once", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to the span", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside the span", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{70, 80}, {10, 20}, {15, 25}}, 75},
	}
	for _, c := range cases {
		if got := selfTime(span, c.children); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimes(t *testing.T) {
	tr := newTracer()
	at := func(ns int64) time.Time { return tr.origin.Add(time.Duration(ns)) }
	root := tr.Add("pass.session", 0, 7, at(0), at(100))
	sim := tr.Add("sim.Run", root, 7, at(10), at(60))
	tr.Add("core.step", sim, 7, at(20), at(30))
	tr.Add("core.step", sim, 7, at(40), at(55))
	self := tr.SelfTimes()
	if self["pass.session"] != 50 || self["sim.Run"] != 25 || self["core.step"] != 25 {
		t.Fatalf("self times %v", self)
	}
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", 0, 1); id != 0 {
		t.Fatal("a nil tracer recorded a span")
	}
	nilTracer.End(0)
}
