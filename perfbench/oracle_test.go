package main

import (
	"bytes"
	"testing"
	"time"

	"treeaa/internal/session"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

// TestOracleMismatchCounts proves the correctness check fires: a decided
// outcome whose Result differs from sim.Run in one output counts as a
// mismatch, in failed_ratio, and makes the run incorrect.
func TestOracleMismatchCounts(t *testing.T) {
	spec := steadySpecs()[3]
	want, err := session.Oracle(serveN, spec)
	if err != nil {
		t.Fatal(err)
	}
	good, err := session.Oracle(serveN, spec)
	if err != nil {
		t.Fatal(err)
	}
	var tl tally
	if !tl.judge(session.Outcome{State: session.StateDecided, Result: good}, want) {
		t.Fatalf("an oracle-equal result was not counted as decided: %v", &tl)
	}

	altered, err := session.Oracle(serveN, spec)
	if err != nil {
		t.Fatal(err)
	}
	altered.Outputs[sim.PartyID(0)] = altered.Outputs[sim.PartyID(0)].(tree.VertexID) + 1
	if tl.judge(session.Outcome{State: session.StateDecided, Result: altered}, want) {
		t.Fatal("an altered result was counted as decided")
	}
	if tl.mismatched != 1 || tl.failures() != 1 || tl.failedRatio() != 0.5 || tl.correct() {
		t.Fatalf("after one altered result: %v, correct=%v", &tl, tl.correct())
	}

	// Rounds, counts and failure states count too.
	off := *want
	off.Messages++
	tl = tally{}
	tl.judge(session.Outcome{State: session.StateDecided, Result: &off}, want)
	tl.judge(session.Outcome{State: session.StateExpired}, want)
	tl.judge(session.Outcome{State: session.StateFailed}, want)
	tl.reject()
	if tl.mismatched != 1 || tl.expired != 1 || tl.failed != 1 || tl.rejected != 1 || tl.failedRatio() != 1 {
		t.Fatalf("tally %v", &tl)
	}
}

// TestMismatchExitsNonzero drives a real run whose oracle has been
// altered and checks that it counts the mismatches and exits nonzero.
func TestMismatchExitsNonzero(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a cluster")
	}
	w := serveWorkloads()["serve-steady"]
	d, err := w.deploy(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	for s, want := range d.oracles {
		altered := *want
		altered.Rounds++
		d.oracles[s] = &altered
	}
	win, err := d.drive(w, 1, 0, 300*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := d.judge(win.recs)
	if err != nil {
		t.Fatal(err)
	}
	if tl.mismatched == 0 || tl.mismatched != tl.attempted || tl.correct() || tl.failedRatio() != 1 {
		t.Fatalf("against an altered oracle: %v", tl)
	}
	if exitCode(tl) == 0 {
		t.Fatal("a run with oracle mismatches would exit 0")
	}
	if exitCode(&tally{attempted: 3, decided: 2, expired: 1}) != 0 {
		t.Fatal("a run without mismatches would exit nonzero")
	}

	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such", "--seconds", "1", "--out", t.TempDir()}, &out, &errOut); code == 0 {
		t.Fatal("an unknown workload exited 0")
	}
}
