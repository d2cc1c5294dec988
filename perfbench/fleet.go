package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/metrics"
	"treeaa/internal/overlay"
	"treeaa/internal/sim"
	"treeaa/internal/transport"
)

// The fleet workload: one protocol run at a time over real loopback links,
// alternating a full mesh with a Byzantine adversary host and an honest
// tree overlay. Here a "session" is one run.

const (
	fleetSpace     = "path:64"
	fleetRotations = 8 // input placements per mode, drawn from the seed
	// fleetMinRuns is how many matching runs each mode needs for its p5 and
	// p95 to be resolved, with margin; the window runs past its length until both
	// modes have them, up to fleetMaxStretch times its length.
	fleetMinRuns    = 210
	fleetMaxStretch = 3
)

// fleetMode is one of the two deployments.
type fleetMode struct {
	name       string
	n, t       int
	branching  int    // overlay only
	adversary  string // mesh only
	clusterFn  string // the layer call, as its span is named
	rotations  []string
	oracles    []*sim.Result
	runMS      Sample
	wire       *metrics.WireStats
	chaos      *metrics.ChaosStats   // mesh: per-round latency
	overlayRun *metrics.OverlayStats // overlay: relay counters, round latency
}

// fleet is the set-up state: the compiled space and both modes' oracles.
type fleet struct {
	space *cli.Space
	modes [2]*fleetMode
}

func newFleet(seed int64) (*fleet, error) {
	sp, err := cli.ParseSpaceSpec(fleetSpace, 0)
	if err != nil {
		return nil, err
	}
	f := &fleet{space: sp, modes: [2]*fleetMode{
		{name: "mesh", n: 7, t: 2, adversary: "splitvote", clusterFn: "transport.LocalCluster"},
		{name: "overlay", n: 16, t: 5, branching: 3, clusterFn: "overlay.Cluster"},
	}}
	rng := rand.New(rand.NewSource(seed))
	for _, m := range f.modes {
		for i := 0; i < fleetRotations; i++ {
			in := sp.RotateInputs(m.n, rng.Intn(sp.NumVertices()))
			cfg, machines, err := f.build(m, in)
			if err != nil {
				return nil, err
			}
			want, err := sim.Run(cfg, machines)
			if err != nil {
				return nil, fmt.Errorf("%s oracle: %w", m.name, err)
			}
			m.rotations = append(m.rotations, in)
			m.oracles = append(m.oracles, want)
		}
	}
	return f, nil
}

// adversary builds a fresh adversary for a mode (strategies keep state).
func (m *fleetMode) newAdversary(sp *cli.Space) (sim.Adversary, error) {
	if m.adversary == "" {
		return nil, nil
	}
	adv, _, err := sp.BuildAdversary(m.adversary, m.n, m.t, 0)
	return adv, err
}

func (f *fleet) build(m *fleetMode, inputSpec string) (sim.Config, []sim.Machine, error) {
	inputs, err := f.space.ParseInputs(inputSpec, m.n)
	if err != nil {
		return sim.Config{}, nil, err
	}
	machines := make([]sim.Machine, m.n)
	for p := range machines {
		if machines[p], _, err = f.space.NewMachine(m.n, m.t, sim.PartyID(p), inputs[p]); err != nil {
			return sim.Config{}, nil, err
		}
	}
	cfg := sim.Config{N: m.n, MaxCorrupt: m.t, MaxRounds: f.space.Rounds() + 2}
	if cfg.Adversary, err = m.newAdversary(f.space); err != nil {
		return sim.Config{}, nil, err
	}
	return cfg, machines, nil
}

// fleetWindow is one timed stretch of runs.
type fleetWindow struct {
	runs     int
	ok       int
	tally    tally
	dur      time.Duration
	cpu      time.Duration
	rt       rtSnapshot
	peak     int
	modeRuns [2]int
}

// drive alternates the modes, one run at a time, until dur has passed and
// each mode has minRuns matching runs.
func (f *fleet) drive(dur time.Duration, minRuns int, tr *Tracer) (*fleetWindow, error) {
	for _, m := range f.modes {
		m.runMS = nil
		m.wire, m.chaos, m.overlayRun = &metrics.WireStats{}, &metrics.ChaosStats{}, &metrics.OverlayStats{}
	}
	win := &fleetWindow{}
	var rt0 rtSnapshot
	var stopSampler func() int
	if tr != nil {
		stopSampler = sampleGoroutines()
		rt0 = readRuntime()
	}
	cpu0 := cpuTime()
	start := time.Now()
	end := start.Add(dur)
	enough := func() bool {
		return len(f.modes[0].runMS) >= minRuns && len(f.modes[1].runMS) >= minRuns
	}
	for i := 0; ; i++ {
		if now := time.Now(); !now.Before(end) && (enough() || !now.Before(start.Add(fleetMaxStretch*dur))) {
			break
		}
		mode := i % 2
		m := f.modes[mode]
		rot := (i / 2) % fleetRotations
		root := tr.Begin("fleet.run", 0, uint64(i))
		cfg, machines, err := f.build(m, m.rotations[rot])
		if err != nil {
			return nil, err
		}
		span := tr.Begin(m.clusterFn, root, uint64(i))
		t0 := time.Now()
		var res *sim.Result
		if m.name == "mesh" {
			res, err = transport.LocalCluster(cfg, machines, transport.Options{Stats: m.wire, Chaos: m.chaos})
		} else {
			res, err = overlay.Cluster(cfg, machines, overlay.Options{Branching: m.branching, Stats: m.overlayRun, Wire: m.wire})
		}
		took := time.Since(t0)
		tr.End(span)
		tr.End(root)
		win.runs++
		win.modeRuns[mode]++
		if err != nil {
			win.tally.attempted++
			win.tally.failed++
			continue
		}
		if win.tally.judgeResult(res, m.oracles[rot]) {
			win.ok++
			m.runMS = append(m.runMS, ms(took))
		}
	}
	win.dur = time.Since(start)
	win.cpu = cpuTime() - cpu0
	if tr != nil {
		win.rt = readRuntime().sub(rt0)
		win.peak = stopSampler()
	}
	return win, nil
}

// judgeResult counts one run against its oracle.
func (t *tally) judgeResult(got, want *sim.Result) bool {
	t.attempted++
	if !reflect.DeepEqual(got, want) {
		t.mismatched++
		return false
	}
	t.decided++
	return true
}

// fleetEndToEnd computes the end-to-end metrics: latency is the mean of
// the two modes' run percentiles, so each mode moves it by half its own
// change.
func (f *fleet) endToEnd(win *fleetWindow) (e2e, error) {
	if win.ok == 0 {
		return e2e{}, fmt.Errorf("no run matched its oracle (%v)", &win.tally)
	}
	var e e2e
	for _, m := range f.modes {
		low, err := tailQuantile(m.name+" run", m.runMS, lowP)
		if err != nil {
			return e2e{}, err
		}
		tail, err := tailQuantile(m.name+" run", m.runMS, 95)
		if err != nil && e.tailErr == nil {
			e.tailErr = err
		}
		e.low += low / 2
		e.p50 += m.runMS.Median() / 2
		e.tail += tail / 2
	}
	e.goodput = float64(win.ok) / win.dur.Seconds()
	e.cpu = ms(win.cpu) / float64(win.ok)
	e.rss = maxRSSMB()
	return e, nil
}

func runFleet(cfg runConfig) (*result, error) {
	var setups Sample
	var f *fleet
	var err error
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if f, err = newFleet(cfg.seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if _, err := f.drive(warmup(cfg.seconds), 0, nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	res := newResult(cfg)
	res.printf("setup: %s (median of %d)\n", fmtSeconds(setups.Median()), len(setups))
	plain, err := f.drive(cfg.seconds, fleetMinRuns, nil)
	if err != nil {
		return nil, err
	}
	res.tally = &plain.tally
	e, err := f.endToEnd(plain)
	if err != nil {
		return nil, err
	}
	f.report(res, plain, e)
	if !cfg.traced {
		e.setup = setups.Median()
		res.metrics = e.metrics()
		return res, nil
	}

	tr := newTracer()
	traced, err := f.drive(cfg.seconds, fleetMinRuns, tr)
	if err != nil {
		return nil, err
	}
	res.tally = &traced.tally
	m := zeroLayers()
	m.tally(&traced.tally)
	m.runtime(traced.rt, traced.peak, traced.ok)
	mesh, ovl := f.modes[0], f.modes[1]
	meshRuns, ovlRuns := float64(traced.modeRuns[0]), float64(traced.modeRuns[1])
	m["transport.frames_per_run"] = float64(mesh.wire.FramesSent.Load()) / meshRuns
	m["transport.bytes_per_run"] = float64(mesh.wire.BytesSent.Load()) / meshRuns
	m["transport.round_ms_p50"] = mesh.chaos.RoundLatency().P50 / 1e6
	m["overlay.frames_per_run"] = float64(ovl.wire.FramesSent.Load()) / ovlRuns
	m["overlay.relayed_per_run"] = float64(ovl.overlayRun.Relayed.Load()) / ovlRuns
	if relayed := ovl.overlayRun.Relayed.Load(); relayed > 0 {
		m["overlay.dedup_ratio"] = float64(ovl.overlayRun.DedupDropped.Load()) / float64(relayed)
	}
	m["overlay.round_ms_p50"] = ovl.overlayRun.RoundLatency().P50 / 1e6
	for _, x := range []struct {
		mode   *fleetMode
		prefix string
	}{{mesh, "transport"}, {ovl, "overlay"}} {
		m[x.prefix+".run_ms_p50"] = x.mode.runMS.Median()
		if m[x.prefix+".run_ms_p95"], err = tailQuantile(x.mode.name+" run", x.mode.runMS, 95); err != nil {
			return nil, err
		}
	}
	te, err := f.endToEnd(traced)
	if err != nil {
		return nil, err
	}
	if te.tailErr != nil {
		return nil, te.tailErr
	}
	m["tail.latency_ms"] = te.tail
	m["latency.p50_ms"] = te.p50
	cpuTraced := ms(traced.cpu) / float64(traced.ok)
	m["trace.overhead_ratio"] = cpuTraced / e.cpu

	// The layer pass re-drives every input placement of both modes once.
	var ins []passInput
	for _, md := range f.modes {
		for rot, in := range md.rotations {
			ins = append(ins, passInput{sid: uint64(len(ins)), space: fleetSpace, inputs: in,
				n: md.n, t: md.t, adversary: md.newAdversary, want: md.oracles[rot]})
		}
	}
	pass, err := layerPass(ins, tr, "")
	if err != nil {
		return nil, err
	}
	m.pass(pass, tr)
	m.ledger(res, pass, tr, cpuTraced, "run", traced.runs, "mesh and overlay links, scheduling, syscalls")
	res.metrics = m
	return res, res.writeTrace(tr)
}

func (f *fleet) report(res *result, win *fleetWindow, e e2e) {
	res.printf("window: %v, %s\n", win.dur.Round(time.Millisecond), &win.tally)
	for _, m := range f.modes {
		p95 := "unresolved"
		if v, err := tailQuantile(m.name, m.runMS, 95); err == nil {
			p95 = fmt.Sprintf("%.3f ms", v)
		}
		desc := fmt.Sprintf("honest, branching %d", m.branching)
		if m.adversary != "" {
			desc = m.adversary + " adversary host"
		}
		p5, _ := m.runMS.Quantile(lowP)
		res.printf("%s (n=%d t=%d, %s): %d runs, %s_run_p5_ms %.3f ms, %s_run_p50_ms %.3f ms, %s_run_p95_ms %s\n",
			m.name, m.n, m.t, desc, len(m.runMS), m.name, p5, m.name, m.runMS.Median(), m.name, p95)
	}
	res.printf("mean of the modes: latency_p5_ms %.3f ms, latency_p50_ms %.3f ms, latency_p95_ms %s; goodput %.2f runs/s; cpu %.3f ms/run; max rss %.1f MB\n",
		e.low, e.p50, e.tailText(), e.goodput, e.cpu, e.rss)
}
