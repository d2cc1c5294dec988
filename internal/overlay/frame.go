package overlay

// Overlay link handshake. A child dials its parent and opens with a hello
// carrying its per-origin receive watermarks (the highest relay sequence it
// has accepted from each origin) and the last round release it holds; the
// parent answers with an ack carrying its own watermarks. Each side then
// replays the retained frames the other lacks — which makes initial
// connects, failover re-homes and crash-restart rejoins the same code path,
// differing only in how much the watermarks say is missing.
//
//	hello  "TAAO" | version | uvarint(session) | u32(from) | u32(to) |
//	       u32(n) | u32(branching) | flags | uvarint(lastDown) | watermarks
//	ack    "TAAK" | version | watermarks
//
// watermarks = uvarint(count) then count × (u32(origin) | uvarint(have)),
// ascending by origin, zero entries omitted. After the handshake the
// connection is a transport.Link: every frame is a wire-encoded payload
// (wire.Version leads, so the two vocabularies cannot be confused) until
// the link's goodbye. Version 2 added the goodbye; a version-1 peer is
// refused at the hello.

import (
	"fmt"

	"treeaa/internal/sim"
	"treeaa/internal/wire"
)

const overlayVersion byte = 2

var (
	helloMagic = [4]byte{'T', 'A', 'A', 'O'}
	ackMagic   = [4]byte{'T', 'A', 'A', 'K'}
)

// hello is the parsed first frame of an overlay link.
type hello struct {
	session  uint64
	from, to sim.PartyID
	n        int
	branch   int
	lastDown int
	have     []uint64 // per-origin accepted watermark, length n
}

func appendWatermarks(dst []byte, have []uint64) []byte {
	count := 0
	for _, w := range have {
		if w > 0 {
			count++
		}
	}
	dst = wire.AppendUvarint(dst, uint64(count))
	for o, w := range have {
		if w > 0 {
			dst = wire.AppendU32(dst, uint32(o))
			dst = wire.AppendUvarint(dst, w)
		}
	}
	return dst
}

func consumeWatermarks(b []byte, n int) ([]uint64, []byte, error) {
	count, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if count > uint64(n) {
		return nil, nil, fmt.Errorf("overlay: %d watermarks for n = %d", count, n)
	}
	have := make([]uint64, n)
	for i := uint64(0); i < count; i++ {
		var o uint32
		o, b, err = wire.ConsumeU32(b)
		if err != nil {
			return nil, nil, err
		}
		if int(o) >= n {
			return nil, nil, fmt.Errorf("overlay: watermark origin %d out of range", o)
		}
		var w uint64
		w, b, err = wire.ConsumeUvarint(b)
		if err != nil {
			return nil, nil, err
		}
		have[o] = w
	}
	return have, b, nil
}

func encodeHello(h hello) []byte {
	body := make([]byte, 0, 64)
	body = append(body, helloMagic[:]...)
	body = append(body, overlayVersion)
	body = wire.AppendUvarint(body, h.session)
	body = wire.AppendU32(body, uint32(h.from))
	body = wire.AppendU32(body, uint32(h.to))
	body = wire.AppendU32(body, uint32(h.n))
	body = wire.AppendU32(body, uint32(h.branch))
	body = append(body, 0) // flags, reserved
	body = wire.AppendUvarint(body, uint64(h.lastDown))
	return appendWatermarks(body, h.have)
}

func parseHello(body []byte) (hello, error) {
	var h hello
	if len(body) < 5 || string(body[:4]) != string(helloMagic[:]) {
		return h, fmt.Errorf("overlay: not an overlay hello")
	}
	if body[4] != overlayVersion {
		return h, fmt.Errorf("overlay: hello version %d, want %d", body[4], overlayVersion)
	}
	b := body[5:]
	var err error
	h.session, b, err = wire.ConsumeUvarint(b)
	if err != nil {
		return h, err
	}
	var from, to, n, branch uint32
	if from, b, err = wire.ConsumeU32(b); err != nil {
		return h, err
	}
	if to, b, err = wire.ConsumeU32(b); err != nil {
		return h, err
	}
	if n, b, err = wire.ConsumeU32(b); err != nil {
		return h, err
	}
	if branch, b, err = wire.ConsumeU32(b); err != nil {
		return h, err
	}
	if len(b) < 1 || b[0] != 0 {
		return h, fmt.Errorf("overlay: bad hello flags")
	}
	b = b[1:]
	down, b, err := wire.ConsumeUvarint(b)
	if err != nil {
		return h, err
	}
	h.from, h.to = sim.PartyID(from), sim.PartyID(to)
	h.n, h.branch, h.lastDown = int(n), int(branch), int(down)
	if h.n < 1 || h.n > wire.MaxIDValue {
		return h, fmt.Errorf("overlay: hello n = %d out of range", h.n)
	}
	if h.have, b, err = consumeWatermarks(b, h.n); err != nil {
		return h, err
	}
	if len(b) != 0 {
		return h, fmt.Errorf("overlay: %d trailing bytes after hello", len(b))
	}
	return h, nil
}

func encodeAck(have []uint64) []byte {
	body := make([]byte, 0, 32)
	body = append(body, ackMagic[:]...)
	body = append(body, overlayVersion)
	return appendWatermarks(body, have)
}

func parseAck(body []byte, n int) ([]uint64, error) {
	if len(body) < 5 || string(body[:4]) != string(ackMagic[:]) {
		return nil, fmt.Errorf("overlay: not an overlay hello-ack")
	}
	if body[4] != overlayVersion {
		return nil, fmt.Errorf("overlay: ack version %d, want %d", body[4], overlayVersion)
	}
	have, rest, err := consumeWatermarks(body[5:], n)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("overlay: %d trailing bytes after ack", len(rest))
	}
	return have, nil
}

// bitset is a little-endian party set (party p is bit p%8 of byte p/8),
// kept in the canonical minimal form wire.OverlayEOR requires: it only ever
// grows to the byte holding the highest set bit, so the last byte is never
// zero and the empty set is nil.
type bitset []byte

func (b bitset) has(p sim.PartyID) bool {
	i := int(p) / 8
	return i < len(b) && b[i]&(1<<(uint(p)%8)) != 0
}

// set adds p, reporting whether the set grew.
func (b *bitset) set(p sim.PartyID) bool {
	i := int(p) / 8
	for len(*b) <= i {
		*b = append(*b, 0)
	}
	mask := byte(1) << (uint(p) % 8)
	if (*b)[i]&mask != 0 {
		return false
	}
	(*b)[i] |= mask
	return true
}

// merge ors another canonical bitmap in, reporting whether the set grew.
func (b *bitset) merge(o []byte) bool {
	for len(*b) < len(o) {
		*b = append(*b, 0)
	}
	grew := false
	for i, x := range o {
		if x&^(*b)[i] != 0 {
			grew = true
			(*b)[i] |= x
		}
	}
	return grew
}

func (b bitset) count() int {
	total := 0
	for _, x := range b {
		for ; x != 0; x &= x - 1 {
			total++
		}
	}
	return total
}

func (b bitset) full(n int) bool { return b.count() == n }

func (b bitset) clone() []byte {
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}
