package transport

import (
	"bytes"
	"errors"
	"net"
	"testing"
	"time"
)

// TestFlushPolicyTable pins the adaptive flusher's decisions as pure
// functions: when it coalesces, how the frames-per-flush average evolves,
// and what cuts a waiting batch short.
func TestFlushPolicyTable(t *testing.T) {
	coalesce := []struct {
		ewma      float64
		occupancy int
		want      bool
	}{
		{0, 32, false},    // cold link: flush immediately, batching buys nothing
		{1, 32, false},    // single-frame flushes: still latency-bound
		{22, 32, false},   // bursty but under target: waits would burn the interval
		{31.9, 32, false}, // just under the target
		{32, 32, true},    // waits tend to fill the batch: hold for fuller ones
		{600, 32, true},   // saturated link
		{4, 4, true},      // target scales with FlushOccupancy
	}
	for _, c := range coalesce {
		if got := shouldCoalesce(c.ewma, c.occupancy); got != c.want {
			t.Errorf("shouldCoalesce(%v, %d) = %v, want %v", c.ewma, c.occupancy, got, c.want)
		}
	}

	ewma := []struct {
		prev   float64
		frames int
		want   float64
	}{
		{0, 0, 0},  // empty flush carries no signal
		{5, 0, 5},  // ditto: average unchanged
		{5, -1, 5}, // defensive: nonsense counts ignored
		{0, 8, 8},  // first sample seeds the average
		{4, 8, 5},  // 0.75*4 + 0.25*8
		{8, 4, 7},  // decays toward quiet
		{2, 2, 2},  // steady state is a fixed point
	}
	for _, c := range ewma {
		if got := updateEWMA(c.prev, c.frames); got != c.want {
			t.Errorf("updateEWMA(%v, %d) = %v, want %v", c.prev, c.frames, got, c.want)
		}
	}

	ready := []struct {
		frames, bytes, occupancy, maxBytes int
		want                               bool
	}{
		{1, 100, 32, 1 << 16, false},       // one small frame: wait
		{31, 1000, 32, 1 << 16, false},     // just under the occupancy cut
		{32, 1000, 32, 1 << 16, true},      // occupancy threshold
		{5, 1 << 16, 32, 1 << 16, true},    // byte cap trumps occupancy
		{5, 1<<16 - 1, 32, 1 << 16, false}, // just under the byte cap
		{1, 0, 1, 1 << 16, true},           // occupancy 1 disables coalescing
	}
	for _, c := range ready {
		if got := batchReady(c.frames, c.bytes, c.occupancy, c.maxBytes); got != c.want {
			t.Errorf("batchReady(%d, %d, %d, %d) = %v, want %v",
				c.frames, c.bytes, c.occupancy, c.maxBytes, got, c.want)
		}
	}
}

// linkEnd is one side of a test link: what it delivered and how it ended.
type linkEnd struct {
	link   *Link
	bodies chan []byte
	failed chan error
}

func newLinkEnd(conn net.Conn) *linkEnd {
	e := &linkEnd{bodies: make(chan []byte, 16), failed: make(chan error, 1)}
	e.link = NewLink(conn, nil, LinkConfig{
		FlushInterval: time.Millisecond, FlushOccupancy: 4, MaxBatchBytes: 1 << 16,
		WriteTimeout: 5 * time.Second,
		Deliver:      func(body []byte) error { e.bodies <- body; return nil },
		Failed:       func(err error) { e.failed <- err },
	})
	return e
}

// linkPair starts a Link on each end of one in-memory connection.
func linkPair() (a, b *linkEnd) {
	ca, cb := net.Pipe()
	a, b = newLinkEnd(ca), newLinkEnd(cb)
	a.link.Start()
	b.link.Start()
	return a, b
}

func (e *linkEnd) awaitFailure(t *testing.T) error {
	t.Helper()
	select {
	case err := <-e.failed:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("link end never reported its failure")
		return nil
	}
}

func (e *linkEnd) awaitDone(t *testing.T) {
	t.Helper()
	select {
	case <-e.link.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("link goroutines never exited")
	}
}

// TestLinkGoodbyeReportsPeerClosed: a graceful Close writes out the queue,
// then the goodbye, and the peer reports ErrPeerClosed — not an I/O error —
// while the closing side reports nothing.
func TestLinkGoodbyeReportsPeerClosed(t *testing.T) {
	a, b := linkPair()
	want := []byte{0x42, 1, 2, 3}
	a.link.Send(want)
	a.link.Close()
	select {
	case got := <-b.bodies:
		if !bytes.Equal(got, want) {
			t.Fatalf("delivered %x, want %x", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame queued before Close never arrived")
	}
	if err := b.awaitFailure(t); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("peer of a closed link reported %v, want ErrPeerClosed", err)
	}
	a.awaitDone(t)
	b.awaitDone(t)
	select {
	case err := <-a.failed:
		t.Fatalf("the closing side reported a failure: %v", err)
	default:
	}
}

// TestLinkKillReportsIOError: an abrupt Kill sends no goodbye, so the peer
// sees an I/O error it cannot mistake for an orderly shutdown.
func TestLinkKillReportsIOError(t *testing.T) {
	a, b := linkPair()
	a.link.Kill()
	err := b.awaitFailure(t)
	if err == nil || errors.Is(err, ErrPeerClosed) {
		t.Fatalf("peer of a killed link reported %v, want an I/O error", err)
	}
	a.awaitDone(t)
	b.awaitDone(t)
	select {
	case err := <-a.failed:
		t.Fatalf("the killing side reported a failure: %v", err)
	default:
	}
}
