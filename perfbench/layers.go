package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"time"

	"treeaa/internal/cli"
	"treeaa/internal/journal"
	"treeaa/internal/session"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// The layer pass: after a traced window, the benchmark drives a sample of
// the window's sessions back through the layers' public functions, one at
// a time on one goroutine, so each layer's self time is its own and not a
// share of a contended processor.

// passInput is one session to re-drive.
type passInput struct {
	sid    uint64
	space  string
	seed   int64
	inputs string
	n, t   int
	// adversary builds the run's adversary; nil for an honest run.
	adversary func(sp *cli.Space) (sim.Adversary, error)
	want      *sim.Result // what the deployment decided; the pass must agree
}

// passResult holds the counts the spans do not.
type passResult struct {
	sessions      int
	steps         int
	stepAllocs    uint64 // over the first allocSessions sessions
	allocSessions int
	msgs          int
	msgBytes      int
	decodes       int
	decodeAllocs  uint64
	appendUS      Sample // each journal Append
	commitMS      Sample // Commit until its ticket closes
}

// sentMsg is one message a machine emitted, with the round it was sent in.
type sentMsg struct {
	round int
	msg   sim.Message
}

// passSession is the per-session state the timed machines report into.
type passSession struct {
	tr      *Tracer
	sid     uint64
	simSpan int64
	sent    []sentMsg
	pr      *passResult
}

// timedMachine times each Step as a core.step span, or, in the separate
// counting run, counts the Step's allocations; either way it changes
// nothing the machine does. The two are kept apart so that reading the
// allocation counter, which stops the world, never lands inside a span.
type timedMachine struct {
	sim.Machine
	ps    *passSession
	count bool
}

func (m *timedMachine) Step(r int, inbox []sim.Message) []sim.Message {
	if m.count {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		out := m.Machine.Step(r, inbox)
		runtime.ReadMemStats(&after)
		m.ps.pr.stepAllocs += after.Mallocs - before.Mallocs
		return out
	}
	span := m.ps.tr.Begin("core.step", m.ps.simSpan, m.ps.sid)
	out := m.Machine.Step(r, inbox)
	m.ps.tr.End(span)
	m.ps.pr.steps++
	for _, msg := range out {
		m.ps.sent = append(m.ps.sent, sentMsg{round: r, msg: msg})
	}
	return out
}

// deliveries is how many remote parties decode a message: every other
// party for a broadcast, one for a message to another party.
func deliveries(m sim.Message, n int) int {
	switch {
	case m.To == sim.Broadcast:
		return n - 1
	case m.To != m.From:
		return 1
	}
	return 0
}

// layerPass re-drives ins. With journalDir set it also journals each
// session's record stream at its origin: the admission and the sealed
// result, committed and waited for.
func layerPass(ins []passInput, tr *Tracer, journalDir string) (*passResult, error) {
	pr := &passResult{sessions: len(ins)}
	var jw *journal.Writer
	if journalDir != "" {
		var err error
		if jw, err = journal.Open(journal.Options{Dir: journalDir}); err != nil {
			return nil, err
		}
	}
	for _, in := range ins {
		if err := passOne(in, tr, jw, pr); err != nil {
			if jw != nil {
				jw.Close()
			}
			return nil, fmt.Errorf("layer pass, session %#x (%s): %w", in.sid, in.space, err)
		}
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			return nil, fmt.Errorf("layer pass journal: %w", err)
		}
	}
	return pr, nil
}

func passOne(in passInput, tr *Tracer, jw *journal.Writer, pr *passResult) error {
	root := tr.Begin("pass.session", 0, in.sid)
	defer tr.End(root)
	ps := &passSession{tr: tr, sid: in.sid, pr: pr}

	// Every daemon compiles the spec and builds its own seat's machine.
	compile := tr.Begin("space.compile", root, in.sid)
	cfg, machines, err := build(in, ps, false)
	tr.End(compile)
	if err != nil {
		return err
	}
	ps.simSpan = tr.Begin("sim.Run", root, in.sid)
	res, err := sim.Run(cfg, machines)
	tr.End(ps.simSpan)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(res, in.want) {
		return fmt.Errorf("re-driven result differs from the deployment's")
	}

	encode := tr.Begin("wire.encode", root, in.sid)
	bodies := make([][]byte, len(ps.sent))
	for i, s := range ps.sent {
		b, err := wire.Encode(wire.SessionMsg{SID: in.sid, Round: s.round, Payload: s.msg.Payload})
		if err != nil {
			return err
		}
		bodies[i] = b
		pr.msgBytes += len(b)
	}
	tr.End(encode)
	pr.msgs += len(bodies)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode := tr.Begin("wire.decode", root, in.sid)
	for i, s := range ps.sent {
		for k := deliveries(s.msg, in.n); k > 0; k-- {
			if _, err := wire.Decode(bodies[i]); err != nil {
				return err
			}
			pr.decodes++
		}
	}
	tr.End(decode)
	runtime.ReadMemStats(&after)
	pr.decodeAllocs += after.Mallocs - before.Mallocs

	if pr.allocSessions < allocSessions {
		cfg, machines, err := build(in, ps, true)
		if err != nil {
			return err
		}
		if _, err := sim.Run(cfg, machines); err != nil {
			return err
		}
		pr.allocSessions++
	}

	if jw != nil {
		return passJournal(in, res, tr, root, jw, pr)
	}
	return nil
}

// allocSessions is how many sessions of a pass are run a second time to
// count the allocations of their steps.
const allocSessions = 50

// build compiles in's space once per seat and wraps each seat's machine.
func build(in passInput, ps *passSession, count bool) (sim.Config, []sim.Machine, error) {
	machines := make([]sim.Machine, in.n)
	var sp *cli.Space
	for p := 0; p < in.n; p++ {
		var err error
		if sp, err = cli.ParseSpaceSpec(in.space, in.seed); err != nil {
			return sim.Config{}, nil, err
		}
		inputs, err := sp.ParseInputs(in.inputs, in.n)
		if err != nil {
			return sim.Config{}, nil, err
		}
		m, _, err := sp.NewMachine(in.n, in.t, sim.PartyID(p), inputs[p])
		if err != nil {
			return sim.Config{}, nil, err
		}
		machines[p] = &timedMachine{Machine: m, ps: ps, count: count}
	}
	cfg := sim.Config{N: in.n, MaxCorrupt: in.t, MaxRounds: sp.Rounds() + 2}
	if in.adversary != nil {
		adv, err := in.adversary(sp)
		if err != nil {
			return sim.Config{}, nil, err
		}
		cfg.Adversary = adv
	}
	return cfg, machines, nil
}

// passJournal writes one session's origin-side record stream at the
// sealed level, the admission and the sealed result, and waits for the
// seal to be durable.
func passJournal(in passInput, res *sim.Result, tr *Tracer, root int64, jw *journal.Writer, pr *passResult) error {
	span := tr.Begin("journal.append", root, in.sid)
	t0 := time.Now()
	err := jw.Append(wire.JournalOpen{SID: in.sid, Tree: in.space, Seed: in.seed, T: in.t,
		Inputs: in.inputs, TTLMillis: uint64(sessionTTL / time.Millisecond),
		DeadlineUnixNano: time.Now().Add(sessionTTL).UnixNano()})
	pr.appendUS = append(pr.appendUS, float64(time.Since(t0))/1e3)
	tr.End(span)
	if err != nil {
		return err
	}

	seal := wire.JournalSeal{SID: in.sid, State: byte(session.StateDecided), HasResult: true,
		Rounds: res.Rounds, Msgs: res.Messages, Bytes: res.Bytes}
	for p, v := range res.Outputs {
		seal.Outputs = append(seal.Outputs, wire.OutputPair{Party: p, V: v.(tree.VertexID)})
	}
	sort.Slice(seal.Outputs, func(i, j int) bool { return seal.Outputs[i].Party < seal.Outputs[j].Party })
	span = tr.Begin("journal.commit", root, in.sid)
	t0 = time.Now()
	ticket, err := jw.Commit(seal)
	if err != nil {
		return err
	}
	<-ticket
	pr.commitMS = append(pr.commitMS, ms(time.Since(t0)))
	tr.End(span)
	return jw.Err()
}

// layerMetrics is the per-layer metric set of one traced run.
type layerMetrics map[string]float64

// zeroLayers starts every per-layer metric at 0: a layer the workload does
// not exercise reads 0.
func zeroLayers() layerMetrics {
	m := make(layerMetrics, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = 0
	}
	return m
}

func (m layerMetrics) tally(t *tally) {
	m["session.rejected"] = float64(t.rejected)
	m["session.failed"] = float64(t.failed)
	m["session.expired"] = float64(t.expired)
	m["session.mismatched"] = float64(t.mismatched)
	m["session.failed_ratio"] = t.failedRatio()
}

func (m layerMetrics) runtime(rt rtSnapshot, goroutinesPeak, units int) {
	if rt.allCPU > 0 {
		m["runtime.gc_cpu_share"] = rt.gcCPU / rt.allCPU
	}
	m["runtime.allocs_per_session"] = float64(rt.mallocs) / float64(units)
	m["runtime.heap_bytes_per_session"] = float64(rt.heapBytes) / float64(units)
	m["runtime.goroutines_peak"] = float64(goroutinesPeak)
}

// pass fills the metrics the layer pass measures.
func (m layerMetrics) pass(pr *passResult, tr *Tracer) {
	self := tr.SelfTimes()
	perSession := func(name string) float64 { return float64(self[name]) / 1e3 / float64(pr.sessions) }
	m["space.compile_us_per_session"] = perSession("space.compile")
	m["core.step_us_per_session"] = perSession("core.step")
	m["core.steps_per_session"] = float64(pr.steps) / float64(pr.sessions)
	if pr.allocSessions > 0 {
		m["core.allocs_per_session"] = float64(pr.stepAllocs) / float64(pr.allocSessions)
	}
	m["sim.engine_us_per_session"] = perSession("sim.Run")
	m["wire.msgs_per_session"] = float64(pr.msgs) / float64(pr.sessions)
	if pr.msgs > 0 {
		m["wire.bytes_per_msg"] = float64(pr.msgBytes) / float64(pr.msgs)
		m["wire.encode_ns_per_msg"] = float64(self["wire.encode"]) / float64(pr.msgs)
	}
	if pr.decodes > 0 {
		m["wire.decode_ns_per_msg"] = float64(self["wire.decode"]) / float64(pr.decodes)
		m["wire.decode_allocs_per_msg"] = float64(pr.decodeAllocs) / float64(pr.decodes)
	}
}

// ledgerRows are the processor-bound layers the pass attributes, in
// print order. The journal commit is left out: it waits on fdatasync.
var ledgerRows = []struct{ span, label string }{
	{"space.compile", "space    cli.ParseSpaceSpec + Space.NewMachine, per seat"},
	{"core.step", "core     Machine.Step (core, pathsfinder, realaa, gradecast)"},
	{"sim.Run", "sim      sim.Run engine, minus its Step children"},
	{"wire.encode", "wire     wire.Encode of each emitted SessionMsg"},
	{"wire.decode", "wire     wire.Decode at each remote recipient"},
	{"journal.append", "journal  Append of the origin's admission record"},
}

// liveSpans are the spans of the traced window itself, in print order:
// wall time, which includes waiting on the protocol and the network.
var liveSpans = []string{"session", "client.Submit", "Manager.Wait", "fleet.run", "transport.LocalCluster", "overlay.Cluster"}

// ledger prints each layer's self time per unit of work next to the
// traced cpu_ms_per_session, what is left unattributed, and the live
// spans' wall time per unit over the liveUnits of the traced window.
// unseen names what the pass cannot see, which is also what the
// unattributed remainder holds.
func (m layerMetrics) ledger(res *result, pr *passResult, tr *Tracer, cpuMS float64, unit string, liveUnits int, unseen string) {
	self := tr.SelfTimes()
	res.printf("ledger: self time per %s against cpu_ms_per_session %.3f ms (traced window); layer pass re-drove %d %ss one at a time\n",
		unit, cpuMS, pr.sessions, unit)
	attributed := 0.0
	for _, row := range ledgerRows {
		v := float64(self[row.span]) / 1e6 / float64(pr.sessions)
		attributed += v
		res.printf("  %-68s %9.3f ms  %5.1f%%\n", row.label, v, 100*v/cpuMS)
	}
	rest := cpuMS - attributed
	res.printf("  %-68s %9.3f ms  %5.1f%%\n", "unattributed ("+unseen+")", rest, 100*rest/cpuMS)
	if commit := self["journal.commit"]; commit > 0 {
		res.printf("  waiting, not processor time: journal Commit until durable %.3f ms/%s\n",
			float64(commit)/1e6/float64(pr.sessions), unit)
	}
	res.printf("  the pass cannot see %s, nor GC outside the steps\n", unseen)
	res.printf("  live spans, wall self time per %s:", unit)
	for _, name := range liveSpans {
		if d, ok := self[name]; ok {
			res.printf(" %s %.3f ms", name, float64(d)/1e6/float64(liveUnits))
		}
	}
	res.printf("\n")
	m["ledger.unattributed_share"] = rest / cpuMS
}
