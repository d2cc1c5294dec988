package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

// Stream framing. Every frame on a connection is
//
//	uvarint(length) | type(1) | fields...
//
// and the first frame of every connection must be a hello. The payload
// bodies inside msg and mirror frames are internal/wire encodings, so the
// transport adds exactly one type byte, a round number and an explicit
// recipient on top of the canonical codec.
//
//	hello:  magic(4) | transport version(1) | uvarint(session) |
//	        u32(from) | u32(to) | u32(n) | flags(1)   (bit 0: resume)
//	ack:    uvarint(frames received on this link)
//	msg:    uvarint(round) | u32(to) | wire body
//	mirror: uvarint(round) | u32(real recipient) | wire body
//	eor:    uvarint(round) | flags(1)        (bit 0: sender's machine is done)
//	goodbye: no fields; the last frame of a Link closed in order (link.go)
//
// The hello emulates the model's authenticated links: a connection speaks
// for exactly one ordered pair (from, to) within one session, and the
// receiver attributes every subsequent frame on it to that sender. The
// end-of-round (eor) frame is the synchronization barrier of the lock-step
// round structure: a party that holds eor(r) from every peer knows its
// round-r inbox is complete, because each connection delivers its frames in
// order and eor(r) is the last frame a peer emits for round r.
//
// A hello with the resume flag re-establishes a link whose connection died
// (version 2 of the framing, added with the chaos subsystem): the receiver
// answers with a hello-ack carrying how many post-hello frames it has
// received and processed on that link, and the dialer replays everything
// after that point from its resend buffer. The ack is the only frame that
// ever travels "backwards" on a connection.
const (
	frameHello    byte = 0x01
	frameMsg      byte = 0x02
	frameMirror   byte = 0x03
	frameEOR      byte = 0x04
	frameHelloAck byte = 0x05

	// FrameMuxSession and FrameMuxHello are the envelope tags of the serving
	// layer's session mux (internal/session), which shares this package's
	// length-prefixed stream format so FrameInfo can classify its traffic
	// too. A mux session frame wraps one wire session body
	// (wire.SessionMsg/EOR/Open/Abort/Decide); a mux hello opens a duplex
	// daemon-pair link. Distinct tags are required because wire.Version
	// (0x01) collides with frameHello as a first body byte.
	FrameMuxSession byte = 0x06
	FrameMuxHello   byte = 0x07

	// frameAsyncDone is the asynchronous mode's termination announcement: the
	// sender's machine has decided. It replaces the eor barrier's done flag —
	// async mode has no rounds to end — and it is a *control* frame for
	// FrameInfo, so chaos latency windows (which key on rounds) let it pass:
	// a decided party's announcement must not queue behind delayed protocol
	// backlog that its already-decided peers will discard anyway.
	frameAsyncDone byte = 0x08

	// frameGoodbye is a Link's last frame before an orderly FIN: the sender
	// flushed everything it meant to send. It has no body beyond its tag, and
	// it is a control frame for FrameInfo, so chaos latency never holds a
	// shutdown back.
	frameGoodbye byte = 0x09

	// transportVersion is independent of wire.Version: framing and payload
	// codec can evolve separately. Version 2 added the hello flags byte and
	// the hello-ack frame for the reconnect path.
	transportVersion byte = 2

	// maxFrameSize bounds a frame body; a malformed length prefix can never
	// force a large allocation.
	maxFrameSize = 1 << 24

	// eorDoneFlag marks the sending party's machine as terminated.
	eorDoneFlag byte = 0x01

	// helloResumeFlag marks a hello as re-establishing an existing link.
	helloResumeFlag byte = 0x01
)

// helloMagic opens every connection; it doubles as a cheap port-collision
// detector (a stray client speaking another protocol fails immediately).
var helloMagic = [4]byte{'T', 'A', 'A', '1'}

// frame is one parsed non-hello frame.
type frame struct {
	typ     byte
	round   int
	to      sim.PartyID // msg: recipient (the owner); mirror: real recipient
	done    bool        // eor only
	payload any         // msg/mirror: decoded wire payload
}

// hello is the parsed first frame of a connection.
type hello struct {
	session  uint64
	from, to sim.PartyID
	n        int
	resume   bool
}

// appendFrame wraps body (type byte included) with its length prefix.
func appendFrame(dst, body []byte) []byte {
	dst = wire.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// AppendFrame exposes the stream framing to the session mux: it appends
// uvarint(len(body)) | body to dst. The body's first byte must be a frame
// type tag (the mux uses FrameMuxSession / FrameMuxHello).
func AppendFrame(dst, body []byte) []byte {
	return appendFrame(dst, body)
}

// ReadFrame reads one length-prefixed frame body from the stream; the
// exported form feeds the session mux's link readers.
func ReadFrame(br *bufio.Reader) ([]byte, error) {
	return readFrame(br)
}

// ReadArena bump-allocates frame bodies out of large blocks, for readers
// whose frames are retained briefly (the session mux hands bodies to shard
// workers that decode and drop them within a round). One make per ~64KB of
// frames replaces one per frame — per-frame body allocation was a top
// serve-profile cost. A block is reclaimed by the GC once every frame
// sliced from it has been released; the arena itself must not be shared
// across goroutines.
type ReadArena struct {
	buf []byte
}

const readArenaBlock = 64 << 10

func (a *ReadArena) take(n int) []byte {
	if n > len(a.buf) {
		size := readArenaBlock
		if n > size {
			size = n
		}
		a.buf = make([]byte, size)
	}
	b := a.buf[:n:n]
	a.buf = a.buf[n:]
	return b
}

// ReadFrameArena is ReadFrame with the body allocated from the arena.
func ReadFrameArena(br *bufio.Reader, a *ReadArena) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes out of range", n)
	}
	body := a.take(int(n))
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return body, nil
}

func encodeHello(h hello) []byte {
	body := make([]byte, 0, 24)
	body = append(body, frameHello)
	body = append(body, helloMagic[:]...)
	body = append(body, transportVersion)
	body = wire.AppendUvarint(body, h.session)
	body = wire.AppendU32(body, uint32(h.from))
	body = wire.AppendU32(body, uint32(h.to))
	body = wire.AppendU32(body, uint32(h.n))
	var flags byte
	if h.resume {
		flags |= helloResumeFlag
	}
	body = append(body, flags)
	return appendFrame(nil, body)
}

// encodeHelloAck builds the receiver's answer to a resume hello: how many
// post-hello frames it holds on the link, so the dialer's replay starts at
// the first missing frame.
func encodeHelloAck(rcvd uint64) []byte {
	body := make([]byte, 0, 12)
	body = append(body, frameHelloAck)
	body = wire.AppendUvarint(body, rcvd)
	return appendFrame(nil, body)
}

// parseHelloAck decodes a hello-ack frame body.
func parseHelloAck(body []byte) (uint64, error) {
	if len(body) < 1 || body[0] != frameHelloAck {
		return 0, fmt.Errorf("transport: expected hello-ack frame")
	}
	rcvd, rest, err := wire.ConsumeUvarint(body[1:])
	if err != nil || len(rest) != 0 {
		return 0, fmt.Errorf("transport: malformed hello-ack")
	}
	return rcvd, nil
}

// encodeMsg builds a msg or mirror frame around an already-encoded wire
// body. The body is shared by every recipient of a broadcast; only the
// envelope differs.
func encodeMsg(typ byte, round int, to sim.PartyID, body []byte) []byte {
	env := make([]byte, 0, 16+len(body))
	env = append(env, typ)
	env = wire.AppendUvarint(env, uint64(round))
	env = wire.AppendU32(env, uint32(to))
	env = append(env, body...)
	return appendFrame(nil, env)
}

// encodeAsyncDone builds the async termination announcement; it has no body
// beyond its type tag.
func encodeAsyncDone() []byte {
	return appendFrame(nil, []byte{frameAsyncDone})
}

func encodeEOR(round int, done bool) []byte {
	env := make([]byte, 0, 8)
	env = append(env, frameEOR)
	env = wire.AppendUvarint(env, uint64(round))
	var flags byte
	if done {
		flags |= eorDoneFlag
	}
	env = append(env, flags)
	return appendFrame(nil, env)
}

// readFrame reads one length-prefixed frame body from the stream.
func readFrame(br *bufio.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if n == 0 || n > maxFrameSize {
		return nil, fmt.Errorf("transport: frame of %d bytes out of range", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, fmt.Errorf("transport: truncated frame: %w", err)
	}
	return body, nil
}

// parseHello validates a connection's opening frame.
func parseHello(body []byte) (hello, error) {
	var h hello
	if len(body) < 1 || body[0] != frameHello {
		return h, fmt.Errorf("transport: connection did not open with hello")
	}
	b := body[1:]
	if len(b) < 5 || [4]byte(b[:4]) != helloMagic {
		return h, fmt.Errorf("transport: bad hello magic")
	}
	if b[4] != transportVersion {
		return h, fmt.Errorf("transport: peer speaks framing version %d, want %d", b[4], transportVersion)
	}
	b = b[5:]
	session, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return h, fmt.Errorf("transport: bad hello session: %w", err)
	}
	from, b, err := consumePartyID(b)
	if err != nil {
		return h, fmt.Errorf("transport: bad hello sender: %w", err)
	}
	to, b, err := consumePartyID(b)
	if err != nil {
		return h, fmt.Errorf("transport: bad hello target: %w", err)
	}
	nv, b, err := wire.ConsumeU32(b)
	if err != nil || len(b) != 1 {
		return h, fmt.Errorf("transport: malformed hello tail")
	}
	flags := b[0]
	if flags&^helloResumeFlag != 0 {
		return h, fmt.Errorf("transport: unknown hello flags %#x", flags)
	}
	return hello{session: session, from: from, to: to, n: int(nv),
		resume: flags&helloResumeFlag != 0}, nil
}

// parseFrame decodes a non-hello frame body, including its wire payload.
func parseFrame(body []byte) (frame, error) {
	var f frame
	f.typ = body[0]
	b := body[1:]
	switch f.typ {
	case frameMsg, frameMirror:
		round, rest, err := consumeRound(b)
		if err != nil {
			return f, err
		}
		to, rest, err := consumePartyID(rest)
		if err != nil {
			return f, err
		}
		payload, err := wire.Decode(rest)
		if err != nil {
			return f, fmt.Errorf("transport: bad payload body: %w", err)
		}
		f.round, f.to, f.payload = round, to, payload
		return f, nil
	case frameEOR:
		round, rest, err := consumeRound(b)
		if err != nil {
			return f, err
		}
		if len(rest) != 1 {
			return f, fmt.Errorf("transport: malformed eor frame")
		}
		f.round, f.done = round, rest[0]&eorDoneFlag != 0
		return f, nil
	case frameAsyncDone:
		if len(b) != 0 {
			return f, fmt.Errorf("transport: malformed async-done frame")
		}
		f.done = true
		return f, nil
	case frameHello:
		return f, fmt.Errorf("transport: unexpected second hello")
	case frameHelloAck:
		return f, fmt.Errorf("transport: unexpected hello-ack on the read side")
	default:
		return f, fmt.Errorf("transport: unknown frame type 0x%02x", f.typ)
	}
}

// FrameInfo peeks at an encoded frame buffer as the transport hands it to
// conn.Write: the round it belongs to, and whether it is a control frame
// (hello / hello-ack / async-done / goodbye / session open-abort-decide) that
// carries no round. It exists for the chaos injector, which wraps
// connections at the net.Conn boundary and keys its fault windows on rounds
// without re-implementing the framing.
//
// The buffer is classified by its *first* frame: the round engines write
// one frame per call, and the session mux writes batches whose frames all
// left one flush tick (so a window keyed on the head is as precise as a
// batched link can be — rounds of different sessions interleave freely in a
// batch anyway). ok is false when b does not start with a well-formed
// frame.
func FrameInfo(b []byte) (round int, control bool, ok bool) {
	n, rest, err := wire.ConsumeUvarint(b)
	if err != nil || uint64(len(rest)) < n || n == 0 {
		return 0, false, false
	}
	body := rest[:n]
	switch body[0] {
	case frameHello, frameHelloAck, FrameMuxHello, frameAsyncDone, frameGoodbye:
		return 0, true, true
	case frameMsg, frameMirror, frameEOR:
		r, _, err := consumeRound(body[1:])
		if err != nil {
			return 0, false, false
		}
		return r, false, true
	case FrameMuxSession:
		return muxSessionInfo(body[1:])
	default:
		return 0, false, false
	}
}

// muxSessionInfo classifies one wire session body: SessionMsg and
// SessionEOR carry a round (after the session id); SessionOpen (tree or
// graph), SessionAbort and SessionDecide are session-control traffic with
// no round.
func muxSessionInfo(b []byte) (round int, control bool, ok bool) {
	if len(b) < 2 || b[0] != wire.Version {
		return 0, false, false
	}
	typ := b[1]
	switch typ {
	case wire.TypeSessionOpen, wire.TypeSessionAbort, wire.TypeSessionDecide,
		wire.TypeSessionOpenGraph:
		return 0, true, true
	case wire.TypeSessionMsg, wire.TypeSessionEOR:
		_, rest, err := wire.ConsumeUvarint(b[2:]) // session id
		if err != nil {
			return 0, false, false
		}
		r, _, err := consumeRound(rest)
		if err != nil {
			return 0, false, false
		}
		return r, false, true
	default:
		return 0, false, false
	}
}

func consumeRound(b []byte) (int, []byte, error) {
	r, rest, err := wire.ConsumeUvarint(b)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: bad round: %w", err)
	}
	if r == 0 || r > math.MaxInt32 {
		return 0, nil, fmt.Errorf("transport: round %d out of range", r)
	}
	return int(r), rest, nil
}

func consumePartyID(b []byte) (sim.PartyID, []byte, error) {
	x, rest, err := wire.ConsumeU32(b)
	if err != nil {
		return 0, nil, err
	}
	if x > wire.MaxIDValue {
		return 0, nil, fmt.Errorf("transport: party id %d out of range", x)
	}
	return sim.PartyID(x), rest, nil
}
