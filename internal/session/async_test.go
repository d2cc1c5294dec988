package session

import (
	"strings"
	"testing"
	"time"

	"treeaa/internal/async"
	"treeaa/internal/cli"
	"treeaa/internal/experiments"
	"treeaa/internal/sim"
	"treeaa/internal/tree"
)

func asyncOptions() Options {
	return Options{Async: true, SetupTimeout: 10 * time.Second,
		RoundTimeout: 20 * time.Second, DrainTimeout: 5 * time.Second}
}

// judgeAsyncResult asserts the async serving contract on one decided
// Result: Rounds is the constant 1, and the outputs are valid (inside the
// input hull) and 1-agreeing.
func judgeAsyncResult(t *testing.T, spec Spec, n int, got *sim.Result, ctx string) {
	t.Helper()
	if got.Rounds != 1 {
		t.Errorf("%s: async Result.Rounds = %d, want the constant 1", ctx, got.Rounds)
	}
	tr, err := cli.ParseTreeSpec(spec.Tree, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := cli.ParseInputs(tr, spec.Inputs, n)
	if err != nil {
		t.Fatal(err)
	}
	outputs := make(map[sim.PartyID]tree.VertexID, len(got.Outputs))
	for p, raw := range got.Outputs {
		v, ok := raw.(tree.VertexID)
		if !ok {
			t.Fatalf("%s: party %d output is %T, not a vertex", ctx, p, raw)
		}
		outputs[p] = v
	}
	if len(outputs) != n {
		t.Fatalf("%s: %d outputs for %d parties", ctx, len(outputs), n)
	}
	if maxDist, valid := experiments.Judge(tr, inputs, nil, outputs); !valid || maxDist > 1 {
		t.Errorf("%s: async outputs violate the paper's properties: valid=%v maxDist=%d",
			ctx, valid, maxDist)
	}
}

// TestAsyncServeDecides: an async deployment serves sessions across tree
// shapes, corruption budgets and origin daemons, and every decided Result
// upholds validity and 1-agreement. No oracle: asynchronous decisions
// legitimately depend on delivery order.
func TestAsyncServeDecides(t *testing.T) {
	cases := []struct {
		n    int
		spec Spec
	}{
		{3, Spec{Tree: "path:8"}},
		{3, Spec{Tree: "star:9"}},
		{4, Spec{Tree: "spider:3:4", T: 1}},
		{4, Spec{Tree: "random:12", Seed: 7, T: 1}},
	}
	for _, tc := range cases {
		c := startTestCluster(t, tc.n, asyncOptions())
		for origin := 0; origin < tc.n; origin++ {
			resp := submitAndWait(t, c, origin, tc.spec)
			ctx := tc.spec.Tree
			if !resp.Decided() {
				t.Fatalf("%s via daemon %d: state %s (%s)", ctx, origin, resp.State, resp.Err)
			}
			got, err := resp.SimResult()
			if err != nil {
				t.Fatalf("%s via daemon %d: %v", ctx, origin, err)
			}
			judgeAsyncResult(t, tc.spec, tc.n, got, ctx)
		}
		c.Stop()
	}
}

// TestAsyncServeSlowLinks: with every peer-link write held up, a sync
// engine would burn its round budget waiting at barriers; the async engine
// has no barriers — frames deliver whenever they arrive and the sessions
// still decide. The watchdog only bounds total silence, which a slow link
// never produces.
func TestAsyncServeSlowLinks(t *testing.T) {
	opts := asyncOptions()
	opts.WrapConn = slowLinks(2 * time.Millisecond)
	c := startTestCluster(t, 3, opts)
	spec := Spec{Tree: "spider:3:3"}
	resp := submitAndWait(t, c, 0, spec)
	if !resp.Decided() {
		t.Fatalf("slow-link async session: state %s (%s)", resp.State, resp.Err)
	}
	got, err := resp.SimResult()
	if err != nil {
		t.Fatal(err)
	}
	judgeAsyncResult(t, spec, 3, got, "slow links")
}

// TestAsyncServeQuietMatchesInProcess: with t=0 every witness report names
// all n senders, making the async update delivery-order independent — so a
// served session's outputs must be byte-identical to the in-process FIFO
// execution of the same pipeline, even though no oracle is enforced at
// serving time.
func TestAsyncServeQuietMatchesInProcess(t *testing.T) {
	const n = 3
	spec := Spec{Tree: "star:6"}
	tr, err := cli.ParseTreeSpec(spec.Tree, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	inputs, err := cli.ParseInputs(tr, spec.Inputs, n)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]async.Machine, n)
	budget := 0
	for i := range machines {
		p, err := async.NewPipeline(tr, n, 0, async.PartyID(i), inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = p
		if b := p.DeliveryBudget(); b > budget {
			budget = b
		}
	}
	want, err := async.Run(async.Config{N: n, MaxDeliveries: budget}, machines)
	if err != nil {
		t.Fatal(err)
	}

	c := startTestCluster(t, n, asyncOptions())
	resp := submitAndWait(t, c, 0, spec)
	if !resp.Decided() {
		t.Fatalf("state %s (%s)", resp.State, resp.Err)
	}
	got, err := resp.SimResult()
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < n; p++ {
		w := want.Outputs[async.PartyID(p)].(tree.VertexID)
		g, ok := got.Outputs[sim.PartyID(p)].(tree.VertexID)
		if !ok || g != w {
			t.Errorf("party %d decided %v when served, %v in-process", p, got.Outputs[sim.PartyID(p)], w)
		}
	}
}

// TestAsyncOptionsRejected: the journal's replay is built on lock-step
// rounds, so an async daemon refuses it at construction with an error
// naming the conflict.
func TestAsyncOptionsRejected(t *testing.T) {
	addrs := []string{"127.0.0.1:1", "127.0.0.1:2"}
	_, err := NewDaemon(0, addrs, "127.0.0.1:0", Options{Async: true, JournalDir: t.TempDir()})
	if err == nil {
		t.Fatal("NewDaemon accepted async + journal")
	}
	if !strings.Contains(err.Error(), "async mode") {
		t.Errorf("journal rejection %q does not explain the async conflict", err)
	}
}
