package transport

import (
	"bufio"
	"bytes"
	"reflect"
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/wire"
)

func readOne(t *testing.T, stream []byte) []byte {
	t.Helper()
	body, err := readFrame(bufio.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return body
}

func TestHelloRoundTrip(t *testing.T) {
	want := hello{session: 0xDEADBEEF, from: 3, to: 5, n: 7}
	got, err := parseHello(readOne(t, encodeHello(want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("hello round trip: got %+v, want %+v", got, want)
	}
}

func TestHelloResumeRoundTrip(t *testing.T) {
	want := hello{session: 0x1234, from: 2, to: 0, n: 4, resume: true}
	got, err := parseHello(readOne(t, encodeHello(want)))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("resume hello round trip: got %+v, want %+v", got, want)
	}
}

func TestHelloRejections(t *testing.T) {
	valid := readOne(t, encodeHello(hello{session: 1, from: 0, to: 1, n: 3}))
	unknownFlags := append([]byte{}, valid...)
	unknownFlags[len(unknownFlags)-1] = 0x80
	cases := map[string][]byte{
		"empty":         {},
		"not hello":     {frameEOR, 1, 0},
		"bad magic":     append([]byte{frameHello, 'X', 'X', 'X', 'X'}, valid[5:]...),
		"bad version":   append([]byte{frameHello, 'T', 'A', 'A', '1', 99}, valid[6:]...),
		"trailing":      append(append([]byte{}, valid...), 0),
		"truncated":     valid[:len(valid)-2],
		"no flags":      valid[:len(valid)-1],
		"unknown flags": unknownFlags,
	}
	for name, b := range cases {
		if _, err := parseHello(b); err == nil {
			t.Errorf("%s: parseHello accepted %x", name, b)
		}
	}
}

func TestHelloAckRoundTrip(t *testing.T) {
	for _, rcvd := range []uint64{0, 1, 127, 1 << 40} {
		got, err := parseHelloAck(readOne(t, encodeHelloAck(rcvd)))
		if err != nil {
			t.Fatal(err)
		}
		if got != rcvd {
			t.Errorf("hello-ack round trip: got %d, want %d", got, rcvd)
		}
	}
}

func TestHelloAckRejections(t *testing.T) {
	valid := readOne(t, encodeHelloAck(42))
	cases := map[string][]byte{
		"empty":      {},
		"wrong type": {frameEOR, 42},
		"no count":   valid[:1],
		"trailing":   append(append([]byte{}, valid...), 0),
	}
	for name, b := range cases {
		if _, err := parseHelloAck(b); err == nil {
			t.Errorf("%s: parseHelloAck accepted %x", name, b)
		}
	}
	// A hello-ack must never appear in the forward frame stream.
	if _, err := parseFrame(valid); err == nil {
		t.Error("parseFrame accepted a hello-ack on the read side")
	}
}

func TestMsgFrameRoundTrip(t *testing.T) {
	payload := gradecast.EchoMsg{Tag: "treeaa/pf", Iter: 3,
		Vals: gradecast.Vec{{ID: 0, Val: 1.5}, {ID: 4, Val: -2}}}
	body, err := wire.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	for _, typ := range []byte{frameMsg, frameMirror} {
		f, err := parseFrame(readOne(t, encodeMsg(typ, 9, 4, body)))
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != typ || f.round != 9 || f.to != 4 || !reflect.DeepEqual(f.payload, payload) {
			t.Errorf("frame round trip: got %+v", f)
		}
	}
}

func TestEORFrameRoundTrip(t *testing.T) {
	for _, done := range []bool{false, true} {
		f, err := parseFrame(readOne(t, encodeEOR(41, done)))
		if err != nil {
			t.Fatal(err)
		}
		if f.typ != frameEOR || f.round != 41 || f.done != done {
			t.Errorf("eor round trip: got %+v, want round 41 done %v", f, done)
		}
	}
}

// TestGoodbyeFrameBytes pins the goodbye on the wire: a one-byte body,
// the goodbye tag 0x09, behind its length prefix.
func TestGoodbyeFrameBytes(t *testing.T) {
	if want := []byte{0x01, 0x09}; !bytes.Equal(goodbyeFrame, want) {
		t.Fatalf("goodbye frame = %x, want %x", goodbyeFrame, want)
	}
	if body := readOne(t, goodbyeFrame); !bytes.Equal(body, []byte{frameGoodbye}) {
		t.Fatalf("goodbye body = %x, want %02x", body, frameGoodbye)
	}
}

func TestParseFrameRejections(t *testing.T) {
	body, err := wire.Encode(gradecast.SendMsg{Tag: "t", Iter: 1, Val: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"unknown type": {0x7F, 1},
		"second hello": {frameHello, 'T', 'A', 'A', '1'},
		"round zero":   readOne(t, encodeMsg(frameMsg, 1, 0, body))[:1+1], // truncate past the type byte
		"bad payload":  readOne(t, encodeMsg(frameMsg, 1, 0, []byte{0xFF, 0xFF})),
		"eor no flags": {frameEOR, 0x01},
		"eor trailing": {frameEOR, 0x01, 0x00, 0x00},
	}
	for name, b := range cases {
		if _, err := parseFrame(b); err == nil {
			t.Errorf("%s: parseFrame accepted %x", name, b)
		}
	}
}

// TestReadFrameBounds: a hostile length prefix cannot force a huge
// allocation or a zero-length frame.
func TestReadFrameBounds(t *testing.T) {
	huge := wire.AppendUvarint(nil, maxFrameSize+1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Error("readFrame accepted an oversized length prefix")
	}
	zero := wire.AppendUvarint(nil, 0)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(zero))); err == nil {
		t.Error("readFrame accepted a zero-length frame")
	}
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(wire.AppendUvarint(nil, 100)))); err == nil {
		t.Error("readFrame accepted a truncated body")
	}
}
