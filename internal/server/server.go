// Package server exposes a cluster node over TCP with a small framed
// protocol, playing the role of Vertica's client port: remote sessions get
// the same SQL surface (including transactions and streamed COPY) as
// in-process ones. The vsql shell and the network integration tests use it;
// the connector can run over it through DialConnector.
//
// Wire format: every message is one frame — a 1-byte type, a 4-byte
// big-endian payload length, and the payload. Two protocol versions share
// that framing. v1 requests are JSON ('Q' query, 'C' copy-begin) or raw
// bytes ('D' copy data, 'E' copy end); responses are JSON ('R' result,
// 'X' error). v2 (negotiated by an 'H' hello frame, see wire.go) carries
// binary requests ('q'/'c') tagged for pipelining and streams results as
// columnar batch frames ('b') followed by a done frame ('z').
package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// v1 frame types ('D'/'E' are shared with v2 COPY streams).
const (
	frameQuery    = 'Q'
	frameCopy     = 'C'
	frameCopyData = 'D'
	frameCopyEnd  = 'E'
	frameResult   = 'R'
	frameError    = 'X'
)

const maxFrame = 1 << 28

type request struct {
	SQL string `json:"sql"`
	// TraceID/ParentID propagate the client's trace context across the wire
	// (0 = untraced): the server-side session parents its execute/copy spans
	// under the remote caller's span, so one connector job reads as a single
	// trace spanning driver, executors, and every Vertica node.
	TraceID  uint64 `json:"trace_id,omitempty"`
	ParentID uint64 `json:"parent_id,omitempty"`
	// Peer names the remote client (the Spark executor in the simulated
	// topology); the server falls back to the connection's remote address.
	Peer string `json:"peer,omitempty"`
}

type response struct {
	Result *vertica.Result `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Transient carries the resilience classification across the wire: the
	// error itself is flattened to text, but the retry decision it implies
	// must survive the trip.
	Transient bool `json:"transient,omitempty"`
	// Code carries the engine's sentinel identity across the wire, so remote
	// callers can distinguish the conditions they react to differently — a
	// down node (retry/failover, the node returns), a removed node (fail over
	// permanently, it never returns), a session-limit rejection (back off or
	// connect elsewhere) — with errors.Is, exactly as in-process callers do.
	// The code↔sentinel mapping lives in the wireCodes registry (wire.go).
	Code string `json:"code,omitempty"`
}

// writeFrame emits one frame with a single Write: header and payload are
// coalesced into one buffer, halving syscalls per frame and leaving no
// partial-write window between the header and its payload.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	buf := make([]byte, 5+len(payload))
	buf[0] = typ
	binary.BigEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[5:], payload)
	_, err := w.Write(buf)
	return err
}

func readFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > maxFrame {
		return 0, nil, fmt.Errorf("server: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

// Server serves one cluster node's sessions over TCP.
type Server struct {
	cluster *vertica.Cluster
	nodeID  int

	// MaxProtocol caps the protocol version this server negotiates
	// (0 means the newest this build speaks). Set to 1 to force JSON
	// framing for every client — the downgrade path old servers exercise.
	MaxProtocol int

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup
}

// New creates a server for the given node of the cluster.
func New(cluster *vertica.Cluster, nodeID int) *Server {
	return &Server{cluster: cluster, nodeID: nodeID}
}

// Listen starts accepting on addr (e.g. "127.0.0.1:0") and returns the bound
// address.
func (s *Server) Listen(addr string) (string, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(l)
	return l.Addr().String(), nil
}

// Close stops the listener and waits for active connections to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		_ = l.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop(l net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// handle sniffs the first frame to pick a protocol: an 'H' hello starts v2
// negotiation, while a v1 JSON request means a legacy client that never
// handshakes — it gets the v1 loop with its first request replayed.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	s.cluster.Obs().Add("server.connections", 1)
	typ, payload, err := readFrame(conn)
	if err != nil {
		return
	}
	switch typ {
	case frameHello:
		s.handleHello(conn, payload)
	case frameQuery, frameCopy:
		s.serveV1(conn, typ, payload)
	default:
		_ = sendError(conn, fmt.Errorf("%w: unexpected first frame %q", ErrProtocol, typ))
	}
}

func (s *Server) handleHello(conn net.Conn, payload []byte) {
	var h hello
	if err := json.Unmarshal(payload, &h); err != nil {
		return
	}
	max := s.MaxProtocol
	if max <= 0 || max > maxProtocol {
		max = maxProtocol
	}
	ver := h.MaxVersion
	if ver > max {
		ver = max
	}
	if ver < protocolV1 {
		ver = protocolV1
	}
	reply, _ := json.Marshal(hello{Version: ver})
	if err := writeFrame(conn, frameHello, reply); err != nil {
		return
	}
	if ver < protocolV2 {
		// Downgraded: the client falls back to JSON framing.
		s.serveV1(conn, 0, nil)
		return
	}
	s.serveV2(conn)
}

// serveV1 runs the legacy JSON request loop. first/firstPayload replay a
// request that was consumed while sniffing the protocol (0 = none).
func (s *Server) serveV1(conn net.Conn, first byte, firstPayload []byte) {
	sess, err := s.cluster.Connect(s.nodeID)
	if err != nil {
		_ = sendError(conn, err)
		return
	}
	defer sess.Close()
	typ, payload := first, firstPayload
	for {
		if typ == 0 {
			var err error
			typ, payload, err = readFrame(conn)
			if err != nil {
				return // client hung up
			}
		}
		switch typ {
		case frameQuery:
			var req request
			if err := json.Unmarshal(payload, &req); err != nil {
				_ = sendError(conn, err)
				break
			}
			res, err := sess.ExecuteContext(s.reqCtx(conn, req), req.SQL)
			if err != nil {
				_ = sendError(conn, err)
				break
			}
			_ = sendResult(conn, res)
		case frameCopy:
			var req request
			if err := json.Unmarshal(payload, &req); err != nil {
				_ = sendError(conn, err)
				break
			}
			cr := &copyReader{conn: conn}
			res, err := sess.CopyFromContext(s.reqCtx(conn, req), req.SQL, cr)
			if err != nil {
				if !copyRecoverable(sess, cr) {
					_ = sendError(conn, fmt.Errorf("%w: COPY stream broken: %v", ErrProtocol, err))
					return
				}
				_ = sendError(conn, err)
				break
			}
			_ = sendResult(conn, res)
		default:
			_ = sendError(conn, fmt.Errorf("%w: unexpected frame %q", ErrProtocol, typ))
			return
		}
		typ, payload = 0, nil
	}
}

// serveV2 runs the binary request loop: requests execute in arrival order
// and every response frame echoes its request's tag, so clients pipeline
// freely and match responses FIFO.
func (s *Server) serveV2(conn net.Conn) {
	sess, sessErr := s.cluster.Connect(s.nodeID)
	if sess != nil {
		defer sess.Close()
	}
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return // client hung up
		}
		switch typ {
		case frameBinQuery:
			req, err := decodeBinRequest(payload)
			if err != nil {
				// No trustworthy tag to address a reply to: close.
				_ = s.sendBinError(conn, req.Tag, err)
				return
			}
			if sessErr != nil {
				_ = s.sendBinError(conn, req.Tag, sessErr)
				break
			}
			res, err := sess.ExecuteColumns(s.reqCtx(conn, request{SQL: req.SQL, TraceID: req.TraceID, ParentID: req.ParentID, Peer: req.Peer}), req.SQL)
			if err != nil {
				_ = s.sendBinError(conn, req.Tag, err)
				break
			}
			if err := s.sendBinResult(conn, req.Tag, res); err != nil {
				return
			}
		case frameBinCopy:
			req, err := decodeBinRequest(payload)
			if err != nil {
				_ = s.sendBinError(conn, req.Tag, err)
				return
			}
			if sessErr != nil {
				// The copy stream still owns the connection; without a
				// session to drain into, close rather than desync.
				_ = s.sendBinError(conn, req.Tag, sessErr)
				return
			}
			cr := &copyReader{conn: conn}
			res, err := sess.CopyFromContext(s.reqCtx(conn, request{SQL: req.SQL, TraceID: req.TraceID, ParentID: req.ParentID, Peer: req.Peer}), req.SQL, cr)
			if err != nil {
				if !copyRecoverable(sess, cr) {
					_ = s.sendBinError(conn, req.Tag, fmt.Errorf("%w: COPY stream broken: %v", ErrProtocol, err))
					return
				}
				_ = s.sendBinError(conn, req.Tag, err)
				break
			}
			if err := s.sendBinResult(conn, req.Tag, res); err != nil {
				return
			}
		default:
			_ = s.sendBinError(conn, 0, fmt.Errorf("%w: unexpected frame %q", ErrProtocol, typ))
			return
		}
	}
}

// copyRecoverable restores frame sync after a failed COPY. The engine can
// fail a COPY before consuming the whole client stream; the unread 'D'
// frames would otherwise be parsed as requests — the desync that used to
// leak an open server-side transaction. If the stream is intact the
// remaining frames are drained and the session continues (true). If the
// stream itself broke (malformed frame, torn connection), any open explicit
// transaction is rolled back so its locks and writes don't outlive the
// connection, and the caller must close (false).
func copyRecoverable(sess *vertica.Session, cr *copyReader) bool {
	if !cr.broken {
		if cr.drain() == nil {
			return true
		}
	}
	if sess.InTxn() {
		_, _ = sess.Execute("ROLLBACK")
	}
	return false
}

// reqCtx builds the context one remote request executes under: the node's
// own collector observes it (so remote sessions surface in this node's
// v_monitor even outside a traced job), the span Peer is stamped from the
// wire-carried client name or, failing that, the connection's remote
// address, and any propagated trace context parents the session's spans
// under the remote job.
func (s *Server) reqCtx(conn net.Conn, req request) context.Context {
	ctx := obs.With(context.Background(), s.cluster.Obs())
	peer := req.Peer
	if peer == "" {
		peer = conn.RemoteAddr().String()
	}
	ctx = obs.WithPeer(ctx, peer)
	if req.TraceID != 0 {
		ctx = obs.WithSpanContext(ctx, obs.SpanContext{TraceID: req.TraceID, SpanID: req.ParentID})
	}
	return ctx
}

// copyReader streams 'D' frames until 'E'.
type copyReader struct {
	conn net.Conn
	buf  []byte
	done bool
	// broken records a protocol violation mid-stream: the connection can no
	// longer be re-synced to a frame boundary.
	broken bool
}

func (c *copyReader) Read(p []byte) (int, error) {
	for len(c.buf) == 0 {
		if c.done {
			return 0, io.EOF
		}
		typ, payload, err := readFrame(c.conn)
		if err != nil {
			// Only 'E' ends the stream: a hang-up before it is a torn load,
			// never a short one.
			c.broken = true
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		switch typ {
		case frameCopyData:
			c.buf = payload
		case frameCopyEnd:
			c.done = true
		default:
			c.broken = true
			return 0, fmt.Errorf("%w: unexpected frame %q during COPY", ErrProtocol, typ)
		}
	}
	n := copy(p, c.buf)
	c.buf = c.buf[n:]
	return n, nil
}

// drain consumes the rest of the copy stream up to its 'E' frame, so the
// connection is back on a request boundary after an engine-side COPY error.
func (c *copyReader) drain() error {
	var sink [4096]byte
	for !c.done {
		if _, err := c.Read(sink[:]); err != nil && err != io.EOF {
			return err
		}
	}
	return nil
}

func sendResult(w io.Writer, res *vertica.Result) error {
	payload, err := json.Marshal(response{Result: res})
	if err != nil {
		return err
	}
	return writeFrame(w, frameResult, payload)
}

func sendError(w io.Writer, e error) error {
	payload, _ := json.Marshal(response{
		Error:     e.Error(),
		Transient: resilience.IsTransient(e),
		Code:      sentinelCode(e),
	})
	return writeFrame(w, frameError, payload)
}

// sendBinResult streams one statement's outcome: zero or more columnar
// batch frames (see encodeBatches), then the done frame with the scalar
// outcome. res must be in column form (Session.ExecuteColumns). A result
// that fails to encode is reported as the statement's error.
func (s *Server) sendBinResult(conn net.Conn, tag uint32, res *vertica.Result) error {
	if res.Schema.NumCols() > 0 {
		var werr error
		err := encodeBatches(res.Schema, res.Batches, func(enc []byte) error {
			payload := make([]byte, 4, 4+len(enc))
			binary.BigEndian.PutUint32(payload, tag)
			werr = writeFrame(conn, frameBatch, append(payload, enc...))
			return werr
		})
		if werr != nil {
			return werr
		}
		if err != nil {
			return s.sendBinError(conn, tag, err)
		}
	}
	return writeFrame(conn, frameDone, encodeBinDone(binDone{
		Tag:          tag,
		RowsAffected: res.RowsAffected,
		Epoch:        res.Epoch,
		Copy:         res.Copy,
	}))
}

// encodeBatches gathers the selected rows of bs, column by column, into
// storage.EncodeColumns payloads of at most wireBatchRows rows each and
// hands them to emit: typed values are copied straight from the batch
// columns into builders reused across payloads, so no row is ever boxed.
// A schema with zero rows still emits one payload, so schema probes
// ("SELECT ... LIMIT 0") arrive intact.
func encodeBatches(schema types.Schema, bs []*storage.Batch, emit func([]byte) error) error {
	builders := storage.NewBuilders(schema)
	cols := make([]storage.Column, len(builders))
	n, emitted := 0, false
	flush := func() error {
		if n > 0 {
			for j, b := range builders {
				cols[j] = b.Build()
			}
		}
		enc, err := storage.EncodeColumns(schema, cols, n)
		if err != nil {
			return err
		}
		for _, b := range builders {
			b.Reset()
		}
		n, emitted = 0, true
		return emit(enc)
	}
	for _, b := range bs {
		for sel := b.Sel; len(sel) > 0; {
			take := sel[:min(len(sel), wireBatchRows-n)]
			for j, c := range b.Cols {
				if err := builders[j].AppendSelected(c, take); err != nil {
					return err
				}
			}
			n += len(take)
			sel = sel[len(take):]
			if n == wireBatchRows {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	if n > 0 || !emitted {
		return flush()
	}
	return nil
}

func (s *Server) sendBinError(conn net.Conn, tag uint32, e error) error {
	return writeFrame(conn, frameBinError, encodeBinError(binError{
		Tag:       tag,
		Transient: resilience.IsTransient(e),
		Code:      sentinelCode(e),
		Msg:       e.Error(),
	}))
}

// ErrRemote wraps errors reported by the server.
var ErrRemote = errors.New("server: remote error")
