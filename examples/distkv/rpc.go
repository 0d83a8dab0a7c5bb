package main

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"pdcedu/internal/csnet"
)

// Marshal encodes an RPC argument or result using the wire encoding
// (JSON). Handlers use it to build their reply payloads.
func Marshal(v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("dist: marshal: %w", err)
	}
	return b, nil
}

// Unmarshal decodes an RPC payload produced by Marshal.
func Unmarshal(b []byte, v interface{}) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("dist: unmarshal: %w", err)
	}
	return nil
}

// RPCHandler processes one call: it receives the marshalled arguments
// and returns the marshalled result. Handlers must be safe for
// concurrent use.
type RPCHandler func(args []byte) ([]byte, error)

// rpcRequest and rpcResponse are the wire envelopes, carried in one
// csnet length-prefixed frame each.
type rpcRequest struct {
	Method string          `json:"method"`
	Args   json.RawMessage `json:"args,omitempty"`
}

type rpcResponse struct {
	Err    string          `json:"err,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// RemoteError is an error produced by the remote handler or dispatch
// (as opposed to a transport failure).
type RemoteError struct {
	Method string
	Msg    string
}

// Error implements error.
func (e *RemoteError) Error() string {
	return fmt.Sprintf("dist: rpc %s: %s", e.Method, e.Msg)
}

// RPCServer is a concurrent TCP RPC server: one length-prefixed frame
// per request and per response. It plugs the JSON call envelope into
// csnet's frame server, reusing its connection machinery (accept loop,
// connection cap, graceful shutdown).
type RPCServer struct {
	mu      sync.Mutex
	methods map[string]RPCHandler
	srv     *csnet.Server
}

// NewRPCServer creates a server with no registered methods.
func NewRPCServer() *RPCServer {
	s := &RPCServer{methods: map[string]RPCHandler{}}
	s.srv = csnet.NewFrameServer(s, 0)
	return s
}

// Register binds a method name to a handler; re-registering a name
// replaces the previous handler.
func (s *RPCServer) Register(method string, h RPCHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.methods[method] = h
}

// Start listens on addr ("127.0.0.1:0" for an ephemeral port) and
// begins serving. It returns the bound address.
func (s *RPCServer) Start(addr string) (string, error) {
	bound, err := s.srv.Start(addr)
	if err != nil {
		return "", fmt.Errorf("dist: rpc: %w", err)
	}
	return bound, nil
}

// ServeFrame implements csnet.FrameHandler: decode the call envelope,
// dispatch, append the reply envelope to dst. json.Unmarshal copies
// what it keeps, so nothing of body outlives the call.
func (s *RPCServer) ServeFrame(dst, body []byte, _ csnet.FrameMeta) []byte {
	var resp rpcResponse
	var req rpcRequest
	if err := json.Unmarshal(body, &req); err != nil {
		resp.Err = fmt.Sprintf("malformed request: %v", err)
	} else {
		s.mu.Lock()
		h, ok := s.methods[req.Method]
		s.mu.Unlock()
		if !ok {
			resp.Err = fmt.Sprintf("unknown method %q", req.Method)
		} else if result, err := h(req.Args); err != nil {
			resp.Err = err.Error()
		} else {
			resp.Result = result
		}
	}
	out, err := json.Marshal(resp)
	if err != nil {
		out, _ = json.Marshal(rpcResponse{Err: fmt.Sprintf("encode response: %v", err)})
	}
	return append(dst, out...)
}

// Shutdown stops accepting, closes every connection and waits for the
// handler goroutines to finish.
func (s *RPCServer) Shutdown() { s.srv.Shutdown() }

// RPCClient is a connection to an RPCServer. It is safe for concurrent
// use: calls share one pipelined, multiplexed connection, so N callers
// have N requests in flight instead of serializing round trips.
type RPCClient struct {
	c *csnet.Client
}

// DialRPC connects to an RPCServer at addr.
func DialRPC(addr string, timeout time.Duration) (*RPCClient, error) {
	cl, err := csnet.Dial(addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("dist: rpc: %w", err)
	}
	return &RPCClient{c: cl}, nil
}

// RPCCall is an in-flight asynchronous call issued by Go.
type RPCCall struct {
	method string
	p      *csnet.Pending
	err    error
}

// Go invokes method with args without waiting for the reply: the
// pipelined counterpart of Call. Fire several, then collect each with
// Done.
func (c *RPCClient) Go(method string, args interface{}) *RPCCall {
	argBytes, err := Marshal(args)
	if err != nil {
		return &RPCCall{method: method, err: err}
	}
	body, err := json.Marshal(rpcRequest{Method: method, Args: argBytes})
	if err != nil {
		return &RPCCall{method: method, err: fmt.Errorf("dist: rpc encode request: %w", err)}
	}
	return &RPCCall{method: method, p: c.c.SendFrame(body)}
}

// Done waits for the reply and, when reply is non-nil, decodes the
// result into it. A call is single-use: a second Done reports
// csnet.ErrCallConsumed. Handler and dispatch failures come back as
// *RemoteError; transport failures as ordinary errors.
func (rc *RPCCall) Done(reply interface{}) error {
	if rc.err != nil {
		return rc.err
	}
	respBody, err := rc.p.Wait()
	if err != nil {
		return fmt.Errorf("dist: rpc %s: %w", rc.method, err)
	}
	var resp rpcResponse
	if err := json.Unmarshal(respBody, &resp); err != nil {
		return fmt.Errorf("dist: rpc decode response: %w", err)
	}
	if resp.Err != "" {
		return &RemoteError{Method: rc.method, Msg: resp.Err}
	}
	if reply != nil {
		return Unmarshal(resp.Result, reply)
	}
	return nil
}

// Call invokes method with args and, when reply is non-nil, decodes the
// result into it. Handler and dispatch failures come back as
// *RemoteError; transport failures as ordinary errors.
func (c *RPCClient) Call(method string, args, reply interface{}) error {
	return c.Go(method, args).Done(reply)
}

// Close releases the connection.
func (c *RPCClient) Close() error { return c.c.Close() }
