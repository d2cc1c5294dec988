package session

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"treeaa/internal/sim"
	"treeaa/internal/transport"
	"treeaa/internal/tree"
	"treeaa/internal/wire"
)

// Client speaks the binary client API to one daemon. It is safe for
// concurrent use; requests on one client serialize over its connection, so
// load generators open one client per worker.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
}

// DialClient connects to a daemon's client API address.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *Client) do(req Request) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	payload, err := clientPayload(req)
	if err != nil {
		return nil, err
	}
	body, err := wire.Encode(payload)
	if err != nil {
		return nil, err
	}
	c.wbuf = transport.AppendFrame(c.wbuf[:0], body)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		return nil, err
	}
	respBody, err := transport.ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	decoded, err := wire.Decode(respBody)
	if err != nil {
		return nil, err
	}
	out, ok := decoded.(wire.ClientOutcome)
	if !ok {
		return nil, fmt.Errorf("session: unexpected %T from daemon", decoded)
	}
	return responseFromOutcome(out), nil
}

func (c *Client) Close() error { return c.conn.Close() }

// clientPayload maps one Request onto its wire payload.
func clientPayload(req Request) (any, error) {
	switch req.Op {
	case "submit":
		ttl := req.TTLMS
		if ttl < 0 {
			ttl = 0
		}
		return wire.ClientSubmit{SID: req.SID, Tree: req.Tree, Seed: req.Seed, T: req.T,
			Inputs: req.Inputs, TTLMillis: uint64(ttl), Wait: req.Wait}, nil
	case "wait":
		return wire.ClientWait{SID: req.SID}, nil
	case "status":
		return wire.ClientStatus{SID: req.SID}, nil
	}
	return nil, fmt.Errorf("session: unknown op %q", req.Op)
}

// responseFromOutcome is the inverse of the server's outcomeFrame.
func responseFromOutcome(out wire.ClientOutcome) *Response {
	resp := &Response{OK: out.OK, Err: out.Err, SID: out.SID,
		LatencyNS: out.LatencyNS, Rounds: out.Rounds,
		Messages: out.Msgs, Bytes: out.Bytes}
	if out.State != wire.ClientStateNone {
		resp.State = State(out.State).String()
	}
	if len(out.Outputs) > 0 {
		resp.Outputs = make(map[string]int, len(out.Outputs))
		for _, p := range out.Outputs {
			resp.Outputs[strconv.Itoa(int(p.Party))] = int(p.V)
		}
	}
	return resp
}

// Submit offers a session. sid 0 auto-assigns. With wait the call blocks
// until the terminal Outcome; without it the response carries the assigned
// sid immediately. A rejection (capacity, duplicate, bad spec) is returned
// as an error.
func (c *Client) Submit(spec Spec, sid uint64, wait bool) (*Response, error) {
	resp, err := c.do(Request{Op: "submit", SID: sid, Tree: spec.Tree, Seed: spec.Seed,
		T: spec.T, Inputs: spec.Inputs, TTLMS: spec.TTL.Milliseconds(), Wait: wait})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("session: submit rejected: %s", resp.Err)
	}
	return resp, nil
}

// Status queries a session's current lifecycle view.
func (c *Client) Status(sid uint64) (*Response, error) {
	resp, err := c.do(Request{Op: "status", SID: sid})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("session: status: %s", resp.Err)
	}
	return resp, nil
}

// Wait blocks until the session reaches a terminal state.
func (c *Client) Wait(sid uint64) (*Response, error) {
	resp, err := c.do(Request{Op: "wait", SID: sid})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("session: wait: %s", resp.Err)
	}
	return resp, nil
}

// Decided reports whether the response is a decided terminal outcome.
func (r *Response) Decided() bool { return r.State == StateDecided.String() }

// SimResult reconstructs the sim.Result a decided response carries, in the
// exact shape sim.Run returns — the form the oracle comparison DeepEquals.
func (r *Response) SimResult() (*sim.Result, error) {
	if !r.Decided() {
		return nil, fmt.Errorf("session: session %#x is %s: %s", r.SID, r.State, r.Err)
	}
	res := &sim.Result{
		Rounds:    r.Rounds,
		Messages:  r.Messages,
		Bytes:     r.Bytes,
		Outputs:   make(map[sim.PartyID]any, len(r.Outputs)),
		Corrupted: make(map[sim.PartyID]bool),
	}
	for p, v := range r.Outputs {
		id, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("session: bad party key %q", p)
		}
		res.Outputs[sim.PartyID(id)] = tree.VertexID(v)
	}
	return res, nil
}
