package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrPeerClosed is what a Link reports when its peer ended the link with a
// goodbye frame: an orderly shutdown, not a fault.
var ErrPeerClosed = errors.New("transport: peer shut down")

// goodbyeFrame is the goodbye with its length prefix, as written.
var goodbyeFrame = []byte{1, frameGoodbye}

// LinkConfig sets up one Link. The callbacks run on the link's goroutines.
type LinkConfig struct {
	FlushInterval  time.Duration // longest a coalescing wait holds the first queued frame
	FlushOccupancy int           // queued frames that end a coalescing wait
	MaxBatchBytes  int           // queued bytes that end a coalescing wait
	WriteTimeout   time.Duration // deadline of each batched write; 0 = none
	ReadTimeout    time.Duration // longest wait for the next inbound frame; 0 = none

	// Arena reads bodies out of a ReadArena, for owners that drop each body
	// soon; otherwise every body is its own allocation, so a retained body
	// never pins an arena block.
	Arena bool

	// Deliver receives each inbound frame body, type byte first; an error
	// fails the link.
	Deliver func(body []byte) error
	// Failed reports the end of a link its owner did not close, after the
	// link has shut itself down: ErrPeerClosed after a goodbye, otherwise
	// the read, write or Deliver error. It runs at most once.
	Failed func(err error)
	// Flushed, when set, observes every batched write: its frames and
	// bytes, and whether an occupancy threshold cut its wait short.
	Flushed func(frames, bytes int, coalesced bool)
}

// Link is one incarnation of a handshaken, framed duplex connection: a
// reader that turns inbound frames into Deliver calls and a flusher that
// writes the outbox in batches. Enqueue never blocks, so backpressure stays
// on this link's flusher. A Link never reconnects. It ends by Close (final
// flush, goodbye, FIN), by Kill (the socket dies first, nothing queued is
// written: the kill -9 stand-in), or by a failure, which kills it and then
// calls Failed.
type Link struct {
	conn net.Conn
	br   *bufio.Reader
	cfg  LinkConfig

	mu       sync.Mutex
	pending  []byte // queued frames awaiting one batched write
	spare    []byte // the last written batch, reused as the next pending
	frames   int
	closed   bool // the link has ended; new frames are dropped
	graceful bool // it ended by Close

	kick     chan struct{} // capacity 1: the outbox went non-empty
	kickFull chan struct{} // capacity 1: the outbox reached a flush threshold
	quit     chan struct{} // closed when the link ends
	running  atomic.Int32
	done     chan struct{} // closed once both goroutines have exited
}

// NewLink wraps conn; br, if non-nil, is the handshake's reader (it may
// hold buffered frames). Nothing runs until Start, so the owner can
// register the link, and queue frames on it, before any callback fires.
func NewLink(conn net.Conn, br *bufio.Reader, cfg LinkConfig) *Link {
	if br == nil {
		br = bufio.NewReaderSize(conn, 64<<10)
	}
	return &Link{conn: conn, br: br, cfg: cfg,
		kick: make(chan struct{}, 1), kickFull: make(chan struct{}, 1),
		quit: make(chan struct{}), done: make(chan struct{})}
}

// Start launches the reader and the flusher. Call it exactly once.
func (l *Link) Start() {
	l.running.Store(2)
	go l.flushLoop()
	go l.readLoop()
}

// Done is closed once the link has ended and both goroutines have exited.
func (l *Link) Done() <-chan struct{} { return l.done }

func (l *Link) exit() {
	if l.running.Add(-1) == 0 {
		close(l.done)
	}
}

// Enqueue queues one complete, length-prefixed frame, copying it, so
// callers may reuse their buffers. Frames for an ended link are dropped.
func (l *Link) Enqueue(frame []byte) { l.queue(frame, true) }

// Send is Enqueue for a frame body: the length prefix is added here.
func (l *Link) Send(body []byte) { l.queue(body, false) }

func (l *Link) queue(b []byte, framed bool) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	first := l.frames == 0
	if framed {
		l.pending = append(l.pending, b...)
	} else {
		l.pending = appendFrame(l.pending, b)
	}
	l.frames++
	ready := batchReady(l.frames, len(l.pending), l.cfg.FlushOccupancy, l.cfg.MaxBatchBytes)
	l.mu.Unlock()
	kick := l.kick
	if ready {
		kick = l.kickFull
	} else if !first {
		return
	}
	select {
	case kick <- struct{}{}:
	default:
	}
}

// Close ends the link gracefully and returns at once; Done reports when
// the queue, the goodbye and the FIN are out.
func (l *Link) Close() { l.stop(true) }

// Kill ends the link abruptly, cutting short a Close still in progress.
func (l *Link) Kill() { l.stop(false) }

// stop ends the link and reports whether this call was the one that did.
func (l *Link) stop(graceful bool) bool {
	l.mu.Lock()
	first := !l.closed
	if first {
		l.closed, l.graceful = true, graceful
		close(l.quit)
	}
	l.mu.Unlock()
	if !graceful {
		l.conn.Close()
	}
	return first
}

func (l *Link) fail(err error) {
	if l.stop(false) {
		l.cfg.Failed(err)
	}
}

// Adaptive flush policy, as pure functions so the table tests can pin the
// decisions without a connection.
//
// The flusher tracks an EWMA of frames-per-flush. On a quiet link (EWMA
// below the occupancy target) the first queued frame flushes immediately —
// batching would only add latency no batch will ever repay, and immediate
// flushes still batch whatever piled up during the previous write. On a
// busy link the flusher holds the first frame up to FlushInterval, cutting
// the batch short the moment occupancy (frames or bytes) crosses the
// threshold. The loop is self-correcting: a coalescing wait that times out
// with a thin batch drags the EWMA back under the target and the link
// returns to immediate flushing. Occupancy 1 puts every frame over the
// threshold, so such a link always flushes at once.

// shouldCoalesce reports whether the recent frames-per-flush average makes
// waiting for a fuller batch worthwhile: only when history says a wait
// tends to fill the occupancy target rather than burn the interval.
func shouldCoalesce(ewma float64, occupancy int) bool { return ewma >= float64(occupancy) }

// updateEWMA folds one flush's frame count into the running average
// (quarter-weight on the new sample; empty flushes carry no signal).
func updateEWMA(prev float64, frames int) float64 {
	if frames <= 0 {
		return prev
	}
	if prev == 0 {
		return float64(frames)
	}
	return 0.75*prev + 0.25*float64(frames)
}

// batchReady reports whether the outbox has hit either flush threshold.
func batchReady(frames, bytes, occupancy, maxBytes int) bool {
	return frames >= occupancy || bytes >= maxBytes
}

// flushLoop writes the outbox once per wakeup, paced by the policy above:
// kick wakes it when the outbox goes non-empty, kickFull cuts a coalescing
// wait short. A stale kick costs one no-op flush.
func (l *Link) flushLoop() {
	defer l.exit()
	timer := time.NewTimer(l.cfg.FlushInterval)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	var ewma float64
	for {
		coalesced := false
		select {
		case <-l.kick:
			if shouldCoalesce(ewma, l.cfg.FlushOccupancy) {
				timer.Reset(l.cfg.FlushInterval)
				select {
				case <-l.kickFull:
					if !timer.Stop() {
						<-timer.C
					}
					coalesced = true
				case <-timer.C:
				case <-l.quit:
					l.finish()
					return
				}
			}
		case <-l.kickFull:
			coalesced = true
		case <-l.quit:
			l.finish()
			return
		}
		n, err := l.flush(coalesced)
		if err != nil {
			l.fail(fmt.Errorf("write: %w", err))
			return
		}
		ewma = updateEWMA(ewma, n)
	}
}

// finish retires the flusher once the link has ended. After Close the
// outbox and then the goodbye go out before the FIN, so the peer can tell
// an orderly shutdown from a crash; otherwise the outbox dies unwritten.
func (l *Link) finish() {
	if l.graceful { // set before quit closed
		if _, err := l.flush(false); err == nil {
			l.setWriteDeadline()
			l.conn.Write(goodbyeFrame)
		}
	}
	l.conn.Close()
}

func (l *Link) setWriteDeadline() {
	if l.cfg.WriteTimeout > 0 {
		l.conn.SetWriteDeadline(time.Now().Add(l.cfg.WriteTimeout))
	}
}

// flush writes the outbox in one syscall and reports how many frames it
// carried. The written buffer becomes the next pending buffer, so a
// steady-state link reuses two batch buffers forever.
func (l *Link) flush(coalesced bool) (int, error) {
	l.mu.Lock()
	batch, frames := l.pending, l.frames
	l.pending, l.frames, l.spare = l.spare[:0], 0, nil
	l.mu.Unlock()
	var err error
	if frames > 0 {
		l.setWriteDeadline()
		if _, err = l.conn.Write(batch); err == nil && l.cfg.Flushed != nil {
			l.cfg.Flushed(frames, len(batch), coalesced)
		}
	}
	l.mu.Lock()
	if l.spare == nil {
		l.spare = batch[:0]
	}
	l.mu.Unlock()
	return frames, err
}

// readLoop turns inbound frames into Deliver calls until the connection
// ends; a goodbye ends it as ErrPeerClosed.
func (l *Link) readLoop() {
	defer l.exit()
	var arena ReadArena
	for {
		if l.cfg.ReadTimeout > 0 {
			l.conn.SetReadDeadline(time.Now().Add(l.cfg.ReadTimeout))
		}
		var body []byte
		var err error
		if l.cfg.Arena {
			body, err = ReadFrameArena(l.br, &arena)
		} else {
			body, err = readFrame(l.br)
		}
		switch {
		case err != nil:
			err = fmt.Errorf("read: %w", err)
		case len(body) == 1 && body[0] == frameGoodbye:
			err = ErrPeerClosed
		default:
			err = l.cfg.Deliver(body)
		}
		if err != nil {
			l.fail(err)
			return
		}
	}
}
