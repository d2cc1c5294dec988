package session

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strconv"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// The client API speaks the binary wire codec over TCP: each request is one
// length-prefixed frame (transport framing) around a ClientSubmit,
// ClientWait or ClientStatus payload, and each response is one framed
// ClientOutcome. One connection carries any number of request/response
// pairs in order. Three ops:
//
//	submit  admit a session (sid 0 = auto-assign); wait=true blocks for the
//	        terminal Outcome, wait=false returns the assigned sid at once
//	status  current lifecycle view of a session on this daemon
//	wait    block until the session reaches a terminal state
//
// OK reports request-level success (the daemon processed the op); a session
// that failed or expired still answers OK with the failure in State/Err.

// maxClientRequest bounds one request frame; specs are tiny, so anything
// bigger is a confused or hostile client.
const maxClientRequest = 1 << 20

// Request is one client API call.
type Request struct {
	Op     string `json:"op"`
	SID    uint64 `json:"sid,omitempty"`
	Tree   string `json:"tree,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	T      int    `json:"t,omitempty"`
	Inputs string `json:"inputs,omitempty"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
	Wait   bool   `json:"wait,omitempty"`
}

// Response answers one Request.
type Response struct {
	OK    bool   `json:"ok"`
	Err   string `json:"err,omitempty"`
	SID   uint64 `json:"sid,omitempty"`
	State string `json:"state,omitempty"`
	// Terminal decided sessions only: the assembled Result fields.
	Outputs   map[string]int `json:"outputs,omitempty"`
	Rounds    int            `json:"rounds,omitempty"`
	Messages  int            `json:"messages,omitempty"`
	Bytes     int            `json:"bytes,omitempty"`
	LatencyNS int64          `json:"latency_ns,omitempty"`
}

func (d *Daemon) acceptClients() {
	defer d.clientWG.Done()
	for {
		conn, err := d.clientLn.Accept()
		if err != nil {
			return // listener closed on shutdown
		}
		d.clientWG.Add(1)
		go d.serveClient(conn)
	}
}

// serveClient runs one connection's request loop until the client hangs up
// or the daemon finishes draining (closedCh fires only after the drain, so
// blocked waits get real outcomes before the connection dies).
func (d *Daemon) serveClient(conn net.Conn) {
	defer d.clientWG.Done()
	defer conn.Close()
	connDone := make(chan struct{})
	defer close(connDone)
	go func() {
		select {
		case <-d.closedCh:
			conn.Close()
		case <-connDone:
		}
	}()
	d.serveBinaryClient(conn, bufio.NewReader(conn))
}

// serveBinaryClient is the request loop: framed wire payloads in both
// directions. A frame that fails to decode tears the connection down
// (framing is lost); a well-formed frame of the wrong type answers with an
// error outcome and keeps the connection.
func (d *Daemon) serveBinaryClient(conn net.Conn, br *bufio.Reader) {
	for {
		body, err := transport.ReadFrame(br)
		if err != nil || len(body) > maxClientRequest {
			return
		}
		payload, err := wire.Decode(body)
		if err != nil {
			return
		}
		var resp Response
		if req, ok := clientRequest(payload); ok {
			resp = d.handleRequest(req)
		} else {
			resp = Response{Err: fmt.Sprintf("unexpected %T on client connection", payload)}
		}
		out, err := wire.Encode(outcomeFrame(resp))
		if err != nil {
			return
		}
		frame := transport.AppendFrame(nil, out)
		if _, err := conn.Write(frame); err != nil {
			return
		}
		d.opts.Stats.ClientBytes.Add(int64(len(frame)))
	}
}

// clientRequest maps a decoded client-plane payload onto the op Request the
// shared handler consumes.
func clientRequest(payload any) (Request, bool) {
	switch p := payload.(type) {
	case wire.ClientSubmit:
		return Request{Op: "submit", SID: p.SID, Tree: p.Tree, Seed: p.Seed, T: p.T,
			Inputs: p.Inputs, TTLMS: int64(p.TTLMillis), Wait: p.Wait}, true
	case wire.ClientWait:
		return Request{Op: "wait", SID: p.SID}, true
	case wire.ClientStatus:
		return Request{Op: "status", SID: p.SID}, true
	}
	return Request{}, false
}

// stateByte maps a Response state string back onto the wire's State value;
// request-level errors carry no state and map to ClientStateNone.
func stateByte(s string) byte {
	for st := StatePending; st <= StateExpired; st++ {
		if st.String() == s {
			return byte(st)
		}
	}
	return wire.ClientStateNone
}

// outcomeFrame converts a Response into its wire form. Outputs sort by
// party, which is also what the codec's canonical encoding requires.
func outcomeFrame(resp Response) wire.ClientOutcome {
	out := wire.ClientOutcome{OK: resp.OK, SID: resp.SID, State: stateByte(resp.State),
		Err: resp.Err, LatencyNS: resp.LatencyNS,
		Rounds: resp.Rounds, Msgs: resp.Messages, Bytes: resp.Bytes}
	if len(resp.Outputs) > 0 {
		pairs := make([]wire.OutputPair, 0, len(resp.Outputs))
		for k, v := range resp.Outputs {
			id, err := strconv.Atoi(k)
			if err != nil {
				continue
			}
			pairs = append(pairs, wire.OutputPair{Party: sim.PartyID(id), V: tree.VertexID(v)})
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].Party < pairs[j].Party })
		out.Outputs = pairs
	}
	return out
}

func (d *Daemon) handleRequest(req Request) Response {
	switch req.Op {
	case "submit":
		spec := Spec{Tree: req.Tree, Seed: req.Seed, T: req.T, Inputs: req.Inputs,
			TTL: time.Duration(req.TTLMS) * time.Millisecond}
		sid, err := d.mgr.Submit(spec, req.SID)
		if err != nil {
			return Response{Err: err.Error()}
		}
		if !req.Wait {
			return Response{OK: true, SID: sid, State: StatePending.String()}
		}
		return d.await(sid)
	case "status":
		out, ok := d.mgr.Status(req.SID)
		if !ok {
			return Response{Err: fmt.Sprintf("unknown session id %#x", req.SID)}
		}
		return outcomeResponse(out)
	case "wait":
		return d.await(req.SID)
	default:
		return Response{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

// await blocks until the session's terminal Outcome. Bounded: every session
// has a deadline, and the post-drain shutdown closes closedCh.
func (d *Daemon) await(sid uint64) Response {
	ch, err := d.mgr.Wait(sid)
	if err != nil {
		return Response{Err: err.Error()}
	}
	select {
	case out := <-ch:
		return outcomeResponse(out)
	case <-d.closedCh:
		return Response{Err: "daemon shutting down"}
	}
}

func outcomeResponse(out Outcome) Response {
	resp := Response{OK: true, SID: out.SID, State: out.State.String(),
		Err: out.Err, LatencyNS: out.Latency.Nanoseconds()}
	if out.Result != nil {
		resp.Rounds = out.Result.Rounds
		resp.Messages = out.Result.Messages
		resp.Bytes = out.Result.Bytes
		resp.Outputs = make(map[string]int, len(out.Result.Outputs))
		for p, v := range out.Result.Outputs {
			if vid, ok := v.(tree.VertexID); ok {
				resp.Outputs[strconv.Itoa(int(p))] = int(vid)
			}
		}
	}
	return resp
}
