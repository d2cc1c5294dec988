package transport

import (
	"testing"

	"treeaa/internal/gradecast"
	"treeaa/internal/wire"
)

// muxFrame builds a FrameMuxSession envelope around a wire session payload,
// the way internal/session's sessionFrame does.
func muxFrame(t *testing.T, payload any) []byte {
	t.Helper()
	body := []byte{FrameMuxSession}
	body, err := wire.Append(body, payload)
	if err != nil {
		t.Fatalf("wire.Append(%T): %v", payload, err)
	}
	return AppendFrame(nil, body)
}

// TestFrameInfoClassifiesFrames pins the chaos injector's view of every
// frame family — the transport's own envelopes and the session mux's — so
// fault windows key on the right rounds and control traffic stays exempt.
func TestFrameInfoClassifiesFrames(t *testing.T) {
	payload := gradecast.SendMsg{Tag: "treeaa/pf", Iter: 1, Val: 3}
	body, err := wire.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		buf     []byte
		round   int
		control bool
	}{
		{"hello", encodeHello(hello{session: 7, from: 1, to: 2, n: 4}), 0, true},
		{"helloAck", encodeHelloAck(12), 0, true},
		{"msg", encodeMsg(frameMsg, 5, 2, body), 5, false},
		{"mirror", encodeMsg(frameMirror, 6, 0, body), 6, false},
		{"eor", encodeEOR(9, true), 9, false},
		{"muxHello", AppendFrame(nil, []byte{FrameMuxHello, 'T', 'A', 'A', 'S'}), 0, true},
		{"goodbye", goodbyeFrame, 0, true},
		{"sessionMsg", muxFrame(t, wire.SessionMsg{SID: 1<<48 | 9, Round: 4, Payload: payload}), 4, false},
		{"sessionEOR", muxFrame(t, wire.SessionEOR{SID: 3, Round: 7, Done: true}), 7, false},
		{"sessionOpen", muxFrame(t, wire.SessionOpen{SID: 3, Tree: "path:8", TTLMillis: 500}), 0, true},
		{"sessionAbort", muxFrame(t, wire.SessionAbort{SID: 3, Reason: "x"}), 0, true},
		{"sessionDecide", muxFrame(t, wire.SessionDecide{SID: 3, Party: 1, V: 2,
			DoneRound: 3, TermRound: 4, Msgs: 5, Bytes: 6}), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			round, control, ok := FrameInfo(tc.buf)
			if !ok {
				t.Fatalf("FrameInfo rejected a well-formed %s frame", tc.name)
			}
			if round != tc.round || control != tc.control {
				t.Fatalf("FrameInfo = (round %d, control %v), want (round %d, control %v)",
					round, control, tc.round, tc.control)
			}
		})
	}
}

// TestFrameInfoBatchUsesHead pins the batched-write rule: a buffer holding
// several frames is classified by its first frame only.
func TestFrameInfoBatchUsesHead(t *testing.T) {
	payload := gradecast.SendMsg{Tag: "treeaa/pf", Iter: 1, Val: 3}
	batch := muxFrame(t, wire.SessionMsg{SID: 1, Round: 3, Payload: payload})
	batch = append(batch, muxFrame(t, wire.SessionEOR{SID: 1, Round: 8, Done: false})...)
	batch = append(batch, muxFrame(t, wire.SessionAbort{SID: 2, Reason: "y"})...)
	round, control, ok := FrameInfo(batch)
	if !ok || control || round != 3 {
		t.Fatalf("FrameInfo(batch) = (round %d, control %v, ok %v), want head frame's (3, false, true)",
			round, control, ok)
	}
}

// TestFrameInfoRejectsGarbage pins the failure mode: ok=false, never a
// panic, for truncated or alien buffers.
func TestFrameInfoRejectsGarbage(t *testing.T) {
	for _, buf := range [][]byte{nil, {0}, {5, 1, 2}, {1, 0xFF}, AppendFrame(nil, []byte{0x7F, 1, 2, 3})} {
		if _, _, ok := FrameInfo(buf); ok {
			t.Errorf("FrameInfo(%v) accepted garbage", buf)
		}
	}
}
