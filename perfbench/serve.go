package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/journal"
	"treeaa/internal/metrics"
	"treeaa/internal/session"
	"treeaa/internal/sim"
)

const (
	serveN       = 4 // daemons; with T=1 the sessions tolerate one Byzantine party
	serveT       = 1
	submitters   = 2 // goroutines, one client connection each
	drainTimeout = 30 * time.Second
	// sessionTTL is each session's deadline and lingerTTL how long a
	// terminal session stays in the daemons' tables. Both are short so that
	// the tables, and with them the heap, stay the size of a few seconds of
	// load; every session decides well within sessionTTL.
	sessionTTL = 3 * time.Second
	lingerTTL  = 500 * time.Millisecond
)

// serveWorkload is a load shape against an in-process session cluster.
type serveWorkload struct {
	rate    float64 // open-loop Poisson arrivals per second; 0 selects the closed window
	window  int     // closed window: sessions in flight across both submitters
	journal bool
	// spec returns session i's spec. oracleSpecs, when set, lists every
	// spec the workload uses, so their oracles are computed in set-up;
	// otherwise each is computed after the window.
	spec        func(seed, i int64) session.Spec
	oracleSpecs []session.Spec
	passSize    int // sessions the traced layer pass drives
}

// steadySpecs are the rotations of serve-steady's one shared spec:
// spider:3:3 with the four inputs rotated around its ten vertices.
func steadySpecs() []session.Spec {
	tr, err := cli.ParseTreeSpec("spider:3:3", 0)
	if err != nil {
		panic(err) // a constant spec
	}
	specs := make([]session.Spec, tr.NumVertices())
	for i := range specs {
		specs[i] = session.Spec{Tree: "spider:3:3", T: serveT,
			Inputs: cli.RotateInputs(tr, serveN, i), TTL: sessionTTL}
	}
	return specs
}

func steadySpec(specs []session.Spec) func(seed, i int64) session.Spec {
	return func(seed, i int64) session.Spec {
		k := (seed + i) % int64(len(specs))
		if k < 0 {
			k += int64(len(specs))
		}
		return specs[k]
	}
}

// mixedSpec gives every session its own (spec, seed): the shape is drawn
// from the workload seed and the session index, and the spec seed is unique
// per session, so no two sessions share a compiled space.
func mixedSpec(seed, i int64) session.Spec {
	r := rand.New(rand.NewSource(seed*1_000_003 + i))
	var tree string
	switch r.Intn(6) {
	case 0:
		tree = "random:64"
	case 1:
		tree = "random:256"
	case 2:
		tree = "random:1024"
	case 3:
		tree = fmt.Sprintf("caterpillar:%d:%d", 8+r.Intn(25), 1+r.Intn(3))
	case 4:
		tree = fmt.Sprintf("graph:randomblock:%d", 16+r.Intn(49))
	default:
		tree = fmt.Sprintf("graph:cliquechain:%d:%d", 2+r.Intn(7), 3+r.Intn(3))
	}
	return session.Spec{Tree: tree, Seed: seed<<32 ^ i, T: serveT, TTL: sessionTTL}
}

// deployment is one running cluster with its clients.
type deployment struct {
	cluster *session.Cluster
	clients [submitters]*session.Client
	stats   *metrics.ServeStats
	jstats  *journal.Stats
	jdir    string
	oracles map[session.Spec]*sim.Result
}

// deploy starts the cluster, dials the clients and computes the shared
// oracles: everything a run needs before its first session.
func (w *serveWorkload) deploy(scratch string) (*deployment, error) {
	d := &deployment{stats: &metrics.ServeStats{}, jstats: &journal.Stats{},
		oracles: make(map[session.Spec]*sim.Result)}
	for _, s := range w.oracleSpecs {
		want, err := session.Oracle(serveN, s)
		if err != nil {
			return nil, fmt.Errorf("oracle: %w", err)
		}
		d.oracles[s] = want
	}
	opts := session.Options{MaxSessions: 4096, DefaultTTL: lingerTTL, Stats: d.stats}
	if w.journal {
		dir, err := os.MkdirTemp(scratch, "journal-")
		if err != nil {
			return nil, err
		}
		d.jdir = dir
		// The sealed level journals admissions and seals and keeps the
		// durable gate: an acked decided session is fsynced first. The full
		// level also logs every inbound frame, tens of MB/s, which ties
		// goodput to the disk's bandwidth.
		opts.JournalDir, opts.JournalStats, opts.JournalLevel = dir, d.jstats, session.JournalSealed
	}
	c, err := session.StartCluster(serveN, opts)
	if err != nil {
		d.close()
		return nil, err
	}
	d.cluster = c
	for k := range d.clients {
		cl, err := session.DialClient(c.ClientAddr(k), 10*time.Second)
		if err != nil {
			d.close()
			return nil, err
		}
		d.clients[k] = cl
	}
	return d, nil
}

func (d *deployment) close() error {
	for _, cl := range d.clients {
		if cl != nil {
			cl.Close()
		}
	}
	var err error
	if d.cluster != nil {
		err = d.cluster.Stop()
	}
	if d.jdir != "" {
		if rerr := os.RemoveAll(d.jdir); err == nil {
			err = rerr
		}
	}
	return err
}

// record is one submitted session as the load generator saw it.
type record struct {
	idx                    int64
	spec                   session.Spec
	due, submit, ack, done time.Time
	sid                    uint64
	rejected               error
	out                    session.Outcome
	ok                     bool // decided and equal to the oracle
}

// latency runs from the scheduled send (open loop) or the submit (window)
// to the outcome firing at the origin.
func (r *record) latency() time.Duration { return r.done.Sub(r.due) }

// ackGap is what the origin added after the engine decided: observed
// completion minus the submit round trip minus admission→terminal. The
// durable gate before the ack shows here.
func (r *record) ackGap() time.Duration {
	return r.done.Sub(r.submit) - r.ack.Sub(r.submit) - r.out.Latency
}

// window is one timed stretch of load.
type window struct {
	recs           []*record
	start, end     time.Time
	cpu            time.Duration
	serve          serveCounters
	journal        journalCounters
	rt             rtSnapshot
	goroutinesPeak int
}

type serveCounters struct {
	batches, frames, bytes, coalesced, clientBytes int64
}

func readServe(s *metrics.ServeStats) serveCounters {
	return serveCounters{s.Batches.Load(), s.BatchFrames.Load(), s.BatchBytes.Load(),
		s.BatchesCoalesced.Load(), s.ClientBytes.Load()}
}

func (a serveCounters) sub(b serveCounters) serveCounters {
	return serveCounters{a.batches - b.batches, a.frames - b.frames, a.bytes - b.bytes,
		a.coalesced - b.coalesced, a.clientBytes - b.clientBytes}
}

type journalCounters struct{ appends, bytes, syncs, syncErrors int64 }

func readJournal(s *journal.Stats) journalCounters {
	return journalCounters{s.Appends.Load(), s.AppendBytes.Load(), s.Syncs.Load(), s.SyncErrors.Load()}
}

func (a journalCounters) sub(b journalCounters) journalCounters {
	return journalCounters{a.appends - b.appends, a.bytes - b.bytes, a.syncs - b.syncs, a.syncErrors - b.syncErrors}
}

// drive offers load for dur and waits for every submitted session. Session
// indices start at base, so windows that must not share specs use disjoint
// bases.
func (d *deployment) drive(w *serveWorkload, seed, base int64, dur time.Duration, tr *Tracer) (*window, error) {
	win := &window{}
	serve0, journal0 := readServe(d.stats), readJournal(d.jstats)
	var rt0 rtSnapshot
	var stopSampler func() int
	if tr != nil {
		stopSampler = sampleGoroutines()
		rt0 = readRuntime()
	}
	cpu0 := cpuTime()
	win.start = time.Now()
	win.end = win.start.Add(dur)

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for k := 0; k < submitters; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ base ^ int64(k+1)*0x9E3779B9))
			recs, err := d.submitter(k, w, seed, base+int64(k), rng, win.start, win.end, tr)
			mu.Lock()
			defer mu.Unlock()
			win.recs = append(win.recs, recs...)
			if err != nil {
				errs = append(errs, err)
			}
		}(k)
	}
	wg.Wait()
	win.cpu = cpuTime() - cpu0
	win.serve = readServe(d.stats).sub(serve0)
	win.journal = readJournal(d.jstats).sub(journal0)
	if tr != nil {
		win.rt = readRuntime().sub(rt0)
		win.goroutinesPeak = stopSampler()
	}
	if len(errs) > 0 {
		return nil, errs[0]
	}
	return win, nil
}

// submitter is one of the two load goroutines: it submits without waiting
// over its own client, learns each session's completion from the origin
// manager's Wait channel, and selects over all of its sessions in flight,
// so no session needs a connection or a goroutine of its own.
func (d *deployment) submitter(k int, w *serveWorkload, seed, idx int64, rng *rand.Rand, start, end time.Time, tr *Tracer) ([]*record, error) {
	cl, mgr := d.clients[k], d.cluster.Daemon(k).Manager()
	open := w.rate > 0
	limit := w.window / submitters
	nextDue := start
	if open {
		nextDue = start.Add(expDelay(rng, w.rate/submitters))
	}
	var (
		done     []*record
		inflight []*record
		cases    []reflect.SelectCase
	)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		now := time.Now()
		for now.Before(end) && ((open && !now.Before(nextDue)) || (!open && len(inflight) < limit)) {
			r := &record{idx: idx, spec: w.spec(seed, idx)}
			idx += submitters
			r.submit = time.Now()
			r.due = r.submit
			if open {
				r.due = nextDue
				nextDue = nextDue.Add(expDelay(rng, w.rate/submitters))
			}
			resp, err := cl.Submit(r.spec, 0, false)
			r.ack = time.Now()
			if err != nil {
				r.rejected = err
				r.done = r.ack
				done = append(done, r)
				now = time.Now()
				continue
			}
			r.sid = resp.SID
			ch, err := mgr.Wait(r.sid)
			if err != nil {
				return done, fmt.Errorf("wait %#x: %w", r.sid, err)
			}
			inflight = append(inflight, r)
			cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(ch)})
			now = time.Now()
		}
		if !now.Before(end) && len(inflight) == 0 {
			return done, nil
		}
		wake := end
		if open && nextDue.Before(end) {
			wake = nextDue
		}
		if !now.Before(end) {
			wake = end.Add(drainTimeout)
			if !now.Before(wake) {
				return done, fmt.Errorf("%d sessions still in flight %v after the window", len(inflight), drainTimeout)
			}
		}
		timer.Reset(wake.Sub(now))
		chosen, val, _ := reflect.Select(append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(timer.C)}))
		if chosen == len(cases) {
			continue
		}
		timer.Stop()
		select { // a tick that raced the completion must not wake the next wait early
		case <-timer.C:
		default:
		}
		r := inflight[chosen]
		r.done = time.Now()
		r.out = val.Interface().(session.Outcome)
		last := len(inflight) - 1
		inflight[chosen], cases[chosen] = inflight[last], cases[last]
		inflight, cases = inflight[:last], cases[:last]
		done = append(done, r)
		if tr != nil {
			root := tr.Add("session", 0, r.sid, r.due, r.done)
			tr.Add("client.Submit", root, r.sid, r.submit, r.ack)
			tr.Add("Manager.Wait", root, r.sid, r.ack, r.done)
		}
	}
}

// expDelay draws a Poisson inter-arrival gap for the given rate.
func expDelay(rng *rand.Rand, rate float64) time.Duration {
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// judge checks every record against the sim.Run oracle: the shared ones
// from set-up, the rest computed here, after the window and outside its
// timing, on one goroutine per submitter.
func (d *deployment) judge(recs []*record) (*tally, error) {
	wants := make([]*sim.Result, len(recs))
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	next := make(chan int)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := recs[i]
				if want, ok := d.oracles[r.spec]; ok {
					wants[i] = want
					continue
				}
				want, err := session.Oracle(serveN, r.spec)
				if err != nil {
					mu.Lock()
					first = fmt.Errorf("oracle for %+v: %w", r.spec, err)
					mu.Unlock()
					continue
				}
				wants[i] = want
			}
		}()
	}
	for i, r := range recs {
		if r.rejected == nil && r.out.State == session.StateDecided {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	if first != nil {
		return nil, first
	}
	t := &tally{}
	for i, r := range recs {
		if r.rejected != nil {
			t.reject()
			continue
		}
		r.ok = t.judge(r.out, wants[i])
	}
	return t, nil
}

// runServe is one run of a serve workload.
func runServe(w *serveWorkload, cfg runConfig) (*result, error) {
	scratch, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	var setups Sample
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		d, err = w.deploy(scratch)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			if err := d.close(); err != nil {
				return nil, fmt.Errorf("setup teardown: %w", err)
			}
		}
	}
	defer d.close()

	if _, err := d.drive(w, cfg.seed, 1<<40, warmup(cfg.seconds), nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	res := newResult(cfg)
	res.printf("setup: %s (median of %d)\n", fmtSeconds(setups.Median()), len(setups))
	plain, err := d.drive(w, cfg.seed, 0, cfg.seconds, nil)
	if err != nil {
		return nil, err
	}
	t, err := d.judge(plain.recs)
	if err != nil {
		return nil, err
	}
	e2e, err := serveEndToEnd(plain, t)
	if err != nil {
		return nil, err
	}
	res.tally = t
	res.report(plain, t, e2e)
	if !cfg.traced {
		e2e.setup = setups.Median()
		res.metrics = e2e.metrics()
		return res, nil
	}

	tr := newTracer()
	traced, err := d.drive(w, cfg.seed, 1<<41, cfg.seconds, tr)
	if err != nil {
		return nil, err
	}
	tt, err := d.judge(traced.recs)
	if err != nil {
		return nil, err
	}
	res.tally = tt
	pass, err := servePass(w, traced, tr, scratch)
	if err != nil {
		return nil, err
	}
	res.metrics, err = serveLayers(w, plain, traced, tt, pass, tr, res)
	if err != nil {
		return nil, err
	}
	return res, res.writeTrace(tr)
}

// serveEndToEnd computes the end-to-end metrics of a window.
func serveEndToEnd(win *window, t *tally) (e2e, error) {
	var lat Sample
	good := 0
	for _, r := range win.recs {
		if r.ok {
			lat = append(lat, ms(r.latency()))
			if !r.done.After(win.end) {
				good++
			}
		}
	}
	if t.decided == 0 {
		return e2e{}, fmt.Errorf("no session decided (%v)", t)
	}
	low, err := tailQuantile("latency", lat, lowP)
	if err != nil {
		return e2e{}, err
	}
	tail, tailErr := tailQuantile("latency", lat, 99)
	if late := lateness(win); late > maxLateMS {
		return e2e{}, fmt.Errorf("generator fell behind: lateness p99 %.1f ms > %d ms, the run is invalid", late, maxLateMS)
	}
	return e2e{
		low:     low,
		p50:     lat.Median(),
		tail:    tail,
		tailErr: tailErr,
		goodput: float64(good) / win.end.Sub(win.start).Seconds(),
		cpu:     ms(win.cpu) / float64(t.decided),
		rss:     maxRSSMB(),
	}, nil
}

// maxLateMS is how late the open-loop generator may send (p99) before its
// run is invalid: past it the offered load was no longer the Poisson
// schedule. Lateness of 10-20 ms is ordinary on a busy 2-vCPU host and is
// charged to latency, which is timed from the schedule.
const maxLateMS = 100

// lateness is the p99 of how late the generator sent against its schedule,
// in ms; 0 for the closed window, which has no schedule.
func lateness(win *window) float64 {
	var late Sample
	for _, r := range win.recs {
		late = append(late, ms(r.submit.Sub(r.due)))
	}
	v, _ := late.Quantile(99)
	return v
}

// report prints a window's end-to-end figures.
func (r *result) report(win *window, t *tally, e e2e) {
	r.printf("window: %v, %s\n", win.end.Sub(win.start).Round(time.Millisecond), t)
	r.printf("latency_p5_ms %.3f ms, latency_p50_ms %.3f ms, latency_p99_ms %s, over %d decided sessions; goodput %.1f/s; cpu %.3f ms/session; max rss %.1f MB; generator late p99 %.3f ms\n",
		e.low, e.p50, e.tailText(), t.decided, e.goodput, e.cpu, e.rss, lateness(win))
}

// servePass re-drives the first passSize decided sessions of the traced
// window through the layers, one at a time.
func servePass(w *serveWorkload, win *window, tr *Tracer, scratch string) (*passResult, error) {
	ok := make([]*record, 0, len(win.recs))
	for _, r := range win.recs {
		if r.ok {
			ok = append(ok, r)
		}
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].idx < ok[j].idx })
	if len(ok) > w.passSize {
		ok = ok[:w.passSize]
	}
	ins := make([]passInput, len(ok))
	for i, r := range ok {
		ins[i] = passInput{sid: r.sid, space: r.spec.Tree, seed: r.spec.Seed, inputs: r.spec.Inputs,
			n: serveN, t: serveT, want: r.out.Result}
	}
	jdir := ""
	if w.journal {
		jdir = filepath.Join(scratch, "pass-journal")
	}
	return layerPass(ins, tr, jdir)
}

// serveLayers assembles the per-layer metrics of a serve workload and
// prints the ledger.
func serveLayers(w *serveWorkload, plain, win *window, t *tally, pass *passResult, tr *Tracer, res *result) (map[string]float64, error) {
	var submitAck, decide, gap, latency Sample
	for _, r := range win.recs {
		submitAck = append(submitAck, float64(r.ack.Sub(r.submit))/1e3)
		if r.ok {
			latency = append(latency, ms(r.latency()))
			decide = append(decide, ms(r.out.Latency))
			gap = append(gap, ms(r.ackGap()))
		}
	}
	m := zeroLayers()
	perSession := func(x int64) float64 { return float64(x) / float64(t.decided) }
	var err error
	tails := []struct {
		name string
		s    Sample
		unit float64
	}{{"client.submit_ack_us_p99", submitAck, 1}, {"session.decide_ms_p99", decide, 1}, {"session.ack_gap_ms_p99", gap, 1},
		{"tail.latency_ms", latency, 1}}
	for _, tl := range tails {
		if m[tl.name], err = tailQuantile(tl.name, tl.s, 99); err != nil {
			return nil, err
		}
	}
	if w.rate > 0 {
		m["gen.late_p99_ms"] = lateness(win)
	}
	m["latency.p50_ms"] = latency.Median()
	m["client.submit_ack_us_p50"] = submitAck.Median()
	m["client.bytes_per_session"] = perSession(win.serve.clientBytes)
	m["session.decide_ms_p50"] = decide.Median()
	m["session.ack_gap_ms_p50"] = gap.Median()
	m.tally(t)
	if win.serve.batches > 0 {
		m["mux.frames_per_batch"] = float64(win.serve.frames) / float64(win.serve.batches)
		m["mux.coalesced_ratio"] = float64(win.serve.coalesced) / float64(win.serve.batches)
	}
	m["mux.writes_per_session"] = perSession(win.serve.batches)
	m["mux.bytes_per_session"] = perSession(win.serve.bytes)
	if w.journal {
		m["journal.appends_per_session"] = perSession(win.journal.appends)
		m["journal.bytes_per_session"] = perSession(win.journal.bytes)
		if win.journal.syncs > 0 {
			m["journal.sessions_per_sync"] = float64(t.decided) / float64(win.journal.syncs)
		}
		m["journal.sync_errors"] = float64(win.journal.syncErrors)
		m["journal.append_us_p50"] = pass.appendUS.Median()
		m["journal.commit_durable_ms_p50"] = pass.commitMS.Median()
		if m["journal.commit_durable_ms_p99"], err = tailQuantile("journal commit", pass.commitMS, 99); err != nil {
			return nil, err
		}
	}
	m.runtime(win.rt, win.goroutinesPeak, t.decided)
	cpuPlain := ms(plain.cpu) / float64(max(1, countOK(plain.recs)))
	cpuTraced := ms(win.cpu) / float64(t.decided)
	m["trace.overhead_ratio"] = cpuTraced / cpuPlain
	m.pass(pass, tr)
	m.ledger(res, pass, tr, cpuTraced, "session", len(win.recs), "mux, scheduling, syscalls")
	return m, nil
}

func countOK(recs []*record) int {
	n := 0
	for _, r := range recs {
		if r.ok {
			n++
		}
	}
	return n
}
