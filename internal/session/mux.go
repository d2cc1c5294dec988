package session

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/wire"
)

// The mux hello opens a daemon-pair link:
//
//	FrameMuxHello | magic(4) | mux version(1) | u32(from) | u32(to) |
//	u32(n) | u64(cluster hash, big-endian)
//
// One duplex connection serves each unordered daemon pair — the lower id
// dials — so a 4-daemon cluster runs every session over 6 connections.
// After the hello the connection is a transport.Link: every frame in both
// directions is a FrameMuxSession envelope around a wire session body,
// until a goodbye ends the link in order.
//
// Links are generational: when one dies (peer crash, restart, shutdown,
// network fault) the lower-id side redials with backoff and the higher-id
// side accepts a replacement. Each generation is its own Link, so a dead
// incarnation's late failure report is recognised by pointer identity and
// ignored. The session layer hears onDown/onUp transitions and degrades
// admission rather than the whole daemon. Version 2 added the goodbye.
const muxVersion byte = 2

var muxMagic = [4]byte{'T', 'A', 'A', 'S'}

// mux owns a daemon's peer links: the mesh handshake, one transport.Link
// per peer (its reader demultiplexes into the handler, its flusher
// coalesces every session's outbound frames into batched writes), and the
// redial loop that restores links the peer's restart tore down.
type mux struct {
	id      sim.PartyID
	n       int
	addrs   []string
	cluster uint64
	opts    Options

	// handler receives every inbound wire body, still encoded, attributed to
	// its authenticated peer. It runs on the link's reader goroutine and is
	// expected to route data-plane frames without decoding them; the body is
	// carved from the link's read arena and stays valid after the call. A
	// non-nil error fails the link.
	handler func(from sim.PartyID, body []byte) error
	// onDown reports a dead link; err wraps transport.ErrPeerClosed when the
	// peer said goodbye.
	onDown func(peer sim.PartyID, err error)
	// onUp reports a link restored after a failure (and the initial mesh).
	onUp func(peer sim.PartyID)

	peers map[sim.PartyID]*peerLink
	ln    net.Listener

	quit      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu    sync.Mutex
	conns []net.Conn
}

// peerLink is one daemon pair's slot: the live Link of the current
// generation (nil while the pair is down) and the redial state.
type peerLink struct {
	peer sim.PartyID

	ready     chan struct{} // closed when the link first comes up
	readyOnce sync.Once

	link atomic.Pointer[transport.Link] // written under mu, read lock-free by enqueue

	mu        sync.Mutex
	redialing bool // a redial goroutine is already running
}

func newMux(id sim.PartyID, n int, addrs []string, cluster uint64, opts Options,
	handler func(from sim.PartyID, body []byte) error,
	onDown func(peer sim.PartyID, err error), onUp func(peer sim.PartyID)) *mux {
	m := &mux{
		id: id, n: n, addrs: addrs, cluster: cluster, opts: opts,
		handler: handler, onDown: onDown, onUp: onUp,
		peers: make(map[sim.PartyID]*peerLink, n-1),
		quit:  make(chan struct{}),
	}
	for p := sim.PartyID(0); int(p) < n; p++ {
		if p != id {
			m.peers[p] = &peerLink{peer: p, ready: make(chan struct{})}
		}
	}
	return m
}

// start builds the mesh over the given bound listener: accept links from
// lower-id peers, dial higher-id peers, then wait until every link is up.
// Lower-id peers of a restarted daemon reach it by their own redial loops,
// so start tolerates them arriving any time within SetupTimeout.
func (m *mux) start(ln net.Listener) error {
	m.ln = ln
	deadline := time.Now().Add(m.opts.SetupTimeout)
	m.wg.Add(1)
	go m.acceptLoop(ln)
	for p := sim.PartyID(0); int(p) < m.n; p++ {
		if p <= m.id {
			continue
		}
		if err := m.dial(p, deadline); err != nil {
			return err
		}
	}
	for p, l := range m.peers {
		select {
		case <-l.ready:
		case <-m.quit:
			return fmt.Errorf("session: daemon %d closed during setup", m.id)
		case <-time.After(time.Until(deadline)):
			return fmt.Errorf("session: daemon %d: no link from daemon %d within %v", m.id, p, m.opts.SetupTimeout)
		}
	}
	return nil
}

// dial connects to one higher-id peer and registers the link.
func (m *mux) dial(p sim.PartyID, deadline time.Time) error {
	conn, err := m.opts.Dialer(m.addrs[p], deadline)
	if err != nil {
		return fmt.Errorf("session: daemon %d dialing daemon %d at %s: %w", m.id, p, m.addrs[p], err)
	}
	conn = m.wrap(p, conn)
	m.track(conn)
	hb := encodeMuxHello(m.id, p, m.n, m.cluster)
	conn.SetWriteDeadline(deadline)
	if _, err := conn.Write(hb); err != nil {
		conn.Close()
		return fmt.Errorf("session: daemon %d handshake to daemon %d: %w", m.id, p, err)
	}
	conn.SetWriteDeadline(time.Time{})
	if err := m.register(p, conn, nil, false); err != nil {
		conn.Close()
		return err
	}
	return nil
}

func (m *mux) wrap(peer sim.PartyID, conn net.Conn) net.Conn {
	if m.opts.WrapConn == nil {
		return conn
	}
	// Both ends wrap with themselves as the writer: each side of the duplex
	// link faults its own outbound direction, so a chaos latency clause on
	// (a, b) shapes a→b traffic no matter which end dialed.
	return m.opts.WrapConn(m.id, peer, conn)
}

func (m *mux) track(conn net.Conn) {
	m.mu.Lock()
	m.conns = append(m.conns, conn)
	m.mu.Unlock()
}

func (m *mux) acceptLoop(ln net.Listener) {
	defer m.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by close()
		}
		m.track(conn)
		m.wg.Add(1)
		go m.handshakeIn(conn)
	}
}

// handshakeIn validates an inbound hello and registers the connection as
// the unique link from its claimed (lower-id) peer. A hello for a link that
// is already up replaces it: the only legitimate source of this connection
// is the peer itself, so a duplicate means the peer restarted while our
// half of the old connection is still undead.
func (m *mux) handshakeIn(conn net.Conn) {
	defer m.wg.Done()
	conn.SetReadDeadline(time.Now().Add(m.opts.SetupTimeout))
	br := bufio.NewReaderSize(conn, 64<<10)
	body, err := transport.ReadFrame(br)
	if err != nil {
		conn.Close()
		return
	}
	from, to, n, cluster, err := parseMuxHello(body)
	switch {
	case err != nil:
	case to != m.id:
		err = fmt.Errorf("addressed to daemon %d", to)
	case from >= m.id || from < 0:
		err = fmt.Errorf("daemon %d must be dialed by this side", from)
	case n != m.n:
		err = fmt.Errorf("peer configured for n = %d, want %d", n, m.n)
	case cluster != m.cluster:
		err = fmt.Errorf("cluster %#x, want %#x", cluster, m.cluster)
	}
	if err != nil {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	// Re-wrap happens on our side too: the acceptor faults its own writes.
	if err := m.register(from, m.wrap(from, conn), br, true); err != nil {
		conn.Close()
	}
}

// register installs a connection as the pair's next generation and starts
// it. With replace set, a live previous generation is killed first
// (peer-restart case) — the frames queued on it are stale, since the
// sessions they belonged to fail with it; without it, a live link rejects
// the duplicate.
func (m *mux) register(peer sim.PartyID, conn net.Conn, br *bufio.Reader, replace bool) error {
	if m.closed() {
		return fmt.Errorf("session: daemon %d is closed", m.id)
	}
	pl := m.peers[peer]
	var lk *transport.Link
	lk = transport.NewLink(conn, br, transport.LinkConfig{
		FlushInterval:  m.opts.FlushInterval,
		FlushOccupancy: m.opts.FlushOccupancy,
		MaxBatchBytes:  m.opts.MaxBatchBytes,
		WriteTimeout:   m.opts.RoundTimeout,
		// No read deadline: an idle link is healthy, and per-session
		// liveness is the engines' round timeout.
		Arena: true,
		Deliver: func(body []byte) error {
			if body[0] != transport.FrameMuxSession {
				return fmt.Errorf("unexpected frame type 0x%02x", body[0])
			}
			return m.handler(peer, body[1:]) // still encoded: the shard decodes
		},
		Failed:  func(err error) { m.linkFailed(pl, lk, err) },
		Flushed: m.flushed,
	})
	pl.mu.Lock()
	if old := pl.link.Load(); old != nil {
		if !replace {
			pl.mu.Unlock()
			return fmt.Errorf("session: duplicate link from daemon %d", peer)
		}
		old.Kill()
	}
	pl.link.Store(lk)
	pl.mu.Unlock()
	m.wg.Add(1)
	go func() { <-lk.Done(); m.wg.Done() }()
	lk.Start()
	if m.closed() {
		// shutdown may have swept the links before this one was stored.
		lk.Kill()
		return nil
	}
	pl.readyOnce.Do(func() { close(pl.ready) })
	if m.onUp != nil {
		m.onUp(peer)
	}
	return nil
}

func (m *mux) flushed(frames, bytes int, coalesced bool) {
	s := m.opts.Stats
	s.Batches.Add(1)
	s.BatchFrames.Add(int64(frames))
	s.BatchBytes.Add(int64(bytes))
	if coalesced {
		s.BatchesCoalesced.Add(1)
	}
}

// linkFailed handles the end of a generation the mux did not close. A
// stale generation (already replaced) is ignored. The lower-id side owns
// redialing, mirroring the initial mesh direction. A goodbye is still a
// dead link to the session layer, but not a fault: LinkDowns skips it.
func (m *mux) linkFailed(pl *peerLink, lk *transport.Link, err error) {
	pl.mu.Lock()
	if pl.link.Load() != lk {
		pl.mu.Unlock()
		return
	}
	pl.link.Store(nil)
	redial := pl.peer > m.id && !pl.redialing && !m.closed()
	if redial {
		pl.redialing = true
	}
	pl.mu.Unlock()
	if m.closed() {
		return
	}
	if m.onDown != nil {
		m.onDown(pl.peer, fmt.Errorf("session: link %d↔%d: %w", m.id, pl.peer, err))
	}
	if !errors.Is(err, transport.ErrPeerClosed) {
		m.opts.Stats.LinkDowns.Add(1)
	}
	if redial {
		m.wg.Add(1)
		go m.redialLoop(pl)
	}
}

// redialLoop restores a link to a higher-id peer with capped exponential
// backoff, giving up only when the mux closes. A restarting peer rebinds
// its listener late in recovery, so early attempts failing is the norm.
func (m *mux) redialLoop(pl *peerLink) {
	defer m.wg.Done()
	defer func() {
		pl.mu.Lock()
		pl.redialing = false
		pl.mu.Unlock()
	}()
	backoff := 25 * time.Millisecond
	for {
		select {
		case <-m.quit:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
		if err := m.dial(pl.peer, time.Now().Add(m.opts.SetupTimeout)); err == nil {
			m.opts.Stats.LinkRedials.Add(1)
			return
		}
	}
}

// enqueue appends one encoded frame to the peer's outbox. It never blocks
// (see transport.Link.Enqueue) and copies the frame, so callers may reuse
// their encode buffers. Frames for a down link are dropped — the session
// layer has already failed the affected sessions.
func (m *mux) enqueue(to sim.PartyID, frame []byte) {
	if pl := m.peers[to]; pl != nil {
		if lk := pl.link.Load(); lk != nil {
			lk.Enqueue(frame)
		}
	}
}

// broadcast enqueues the frame on every peer link.
func (m *mux) broadcast(frame []byte) {
	for p := sim.PartyID(0); int(p) < m.n; p++ {
		if p != m.id {
			m.enqueue(p, frame)
		}
	}
}

func (m *mux) closed() bool {
	select {
	case <-m.quit:
		return true
	default:
		return false
	}
}

// close tears the mux down gracefully: every link writes its queue out —
// decides queued by terminal engines must reach peers mid-assembly, or they
// hang until their drain deadline — then its goodbye, and only then do the
// sockets close. The final writes are bounded by the usual write deadline.
// Safe to call more than once.
func (m *mux) close() { m.shutdown(false) }

// kill tears the mux down abruptly — sockets first, no final flush, no
// goodbye — the in-process stand-in for the process dying under kill -9.
// Peers observe exactly what a crash gives them: connections reset
// mid-stream.
func (m *mux) kill() { m.shutdown(true) }

func (m *mux) shutdown(abrupt bool) {
	m.closeOnce.Do(func() {
		close(m.quit)
		if m.ln != nil {
			m.ln.Close()
		}
		var live []*transport.Link
		for _, pl := range m.peers {
			if lk := pl.link.Load(); lk != nil {
				live = append(live, lk)
				if abrupt {
					lk.Kill()
				} else {
					lk.Close()
				}
			}
		}
		for _, lk := range live {
			<-lk.Done()
		}
		// Handshakes still in flight hold the only other sockets.
		m.mu.Lock()
		conns := m.conns
		m.conns = nil
		m.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	})
	m.wg.Wait()
}

// appendSessionFrame appends one mux session frame — the length-prefixed
// FrameMuxSession envelope around the payload's wire encoding — to dst and
// returns the extended slice, byte-identical to transport.AppendFrame over
// the assembled body but without the intermediate body allocation. enqueue
// copies, so callers (the engines' hot path) reuse one scratch buffer.
func appendSessionFrame(dst []byte, payload any) ([]byte, error) {
	sz, err := wire.EncodedSize(payload)
	if err != nil {
		return nil, err
	}
	dst = wire.AppendUvarint(dst, uint64(sz+1))
	dst = append(dst, transport.FrameMuxSession)
	return wire.Append(dst, payload)
}

// sessionFrame is appendSessionFrame into a fresh slice: one frame, ready
// for enqueue. The returned slice is immutable by convention — broadcasts
// share it across links.
func sessionFrame(payload any) ([]byte, error) {
	return appendSessionFrame(nil, payload)
}

func encodeMuxHello(from, to sim.PartyID, n int, cluster uint64) []byte {
	body := make([]byte, 0, 26)
	body = append(body, transport.FrameMuxHello)
	body = append(body, muxMagic[:]...)
	body = append(body, muxVersion)
	body = wire.AppendU32(body, uint32(from))
	body = wire.AppendU32(body, uint32(to))
	body = wire.AppendU32(body, uint32(n))
	for shift := 56; shift >= 0; shift -= 8 {
		body = append(body, byte(cluster>>shift))
	}
	return transport.AppendFrame(nil, body)
}

func parseMuxHello(body []byte) (from, to sim.PartyID, n int, cluster uint64, err error) {
	fail := func(msg string) (sim.PartyID, sim.PartyID, int, uint64, error) {
		return 0, 0, 0, 0, fmt.Errorf("session: bad mux hello: %s", msg)
	}
	if len(body) < 1 || body[0] != transport.FrameMuxHello {
		return fail("not a mux hello")
	}
	b := body[1:]
	if len(b) != 4+1+4+4+4+8 {
		return fail("wrong length")
	}
	if [4]byte(b[:4]) != muxMagic {
		return fail("bad magic")
	}
	if b[4] != muxVersion {
		return fail(fmt.Sprintf("mux version %d, want %d", b[4], muxVersion))
	}
	b = b[5:]
	f, b, _ := wire.ConsumeU32(b)
	t, b, _ := wire.ConsumeU32(b)
	nv, b, _ := wire.ConsumeU32(b)
	if f > wire.MaxIDValue || t > wire.MaxIDValue || nv > wire.MaxIDValue {
		return fail("id out of range")
	}
	for _, x := range b {
		cluster = cluster<<8 | uint64(x)
	}
	return sim.PartyID(f), sim.PartyID(t), int(nv), cluster, nil
}
