package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/resilience"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// DefaultDialTimeout bounds connection establishment so a black-holed
// endpoint cannot wedge a client forever.
const DefaultDialTimeout = 10 * time.Second

// dialConfig collects the knobs DialContext options set.
type dialConfig struct {
	dialTimeout time.Duration
	opTimeout   time.Duration
	protocol    int
	peerName    string
}

// Option configures a connection opened by DialContext.
type Option func(*dialConfig)

// WithDialTimeout bounds connection establishment (0 = no timeout; the
// default is DefaultDialTimeout). The dial context's own deadline still
// applies — whichever expires first wins.
func WithDialTimeout(d time.Duration) Option {
	return func(c *dialConfig) { c.dialTimeout = d }
}

// WithOpTimeout bounds every frame write and response read on the
// connection, like SetOpTimeout (0 = no per-operation deadline).
func WithOpTimeout(d time.Duration) Option {
	return func(c *dialConfig) { c.opTimeout = d }
}

// WithProtocol caps the protocol version the connection negotiates.
// 1 forces the legacy JSON framing (no handshake is sent at all, so the
// connection works against pre-handshake servers); 0 or 2 requests the
// binary protocol, downgrading to whatever the server answers.
func WithProtocol(version int) Option {
	return func(c *dialConfig) { c.protocol = version }
}

// WithPeerName names this client in requests that carry no peer of their
// own, so server-side spans attribute work to the caller rather than an
// ephemeral socket address.
func WithPeerName(name string) Option {
	return func(c *dialConfig) { c.peerName = name }
}

// TCPConn is a client session over the wire protocol; it implements
// client.Conn so the connector can run against a remote cluster unchanged.
// A TCPConn is not safe for concurrent use; pipelining happens through the
// explicit Pipeline API, not through concurrent Executes.
type TCPConn struct {
	conn net.Conn
	// opTimeout bounds each frame write and each response read; 0 = none.
	opTimeout time.Duration
	peerName  string

	// proto is the version cap requested at dial time (0 = newest).
	proto int
	// negotiated is the version agreed with the server, 0 until the lazy
	// handshake on the first operation. hsErr latches a failed handshake:
	// the connection is in an unknown state and every later call fails.
	negotiated int
	hsErr      error
	// tag numbers requests; responses echo it (v2 only).
	tag uint32
}

// DialContext opens a session against a node server. The context bounds
// connection establishment (alongside the dial timeout); per-operation
// deadlines come from WithOpTimeout or each call's own context.
func DialContext(ctx context.Context, addr string, opts ...Option) (*TCPConn, error) {
	cfg := dialConfig{dialTimeout: DefaultDialTimeout}
	for _, o := range opts {
		o(&cfg)
	}
	dialer := net.Dialer{Timeout: cfg.dialTimeout}
	nc, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return &TCPConn{
		conn:      nc,
		opTimeout: cfg.opTimeout,
		peerName:  cfg.peerName,
		proto:     cfg.protocol,
	}, nil
}

// SetOpTimeout bounds every subsequent frame write and response read; a
// server that stops responding surfaces a timeout (classified transient)
// instead of hanging the caller.
func (c *TCPConn) SetOpTimeout(d time.Duration) { c.opTimeout = d }

// Protocol returns the negotiated protocol version (0 before the first
// operation completes the lazy handshake).
func (c *TCPConn) Protocol() int { return c.negotiated }

// deadline folds the per-operation timeout and the context deadline into
// one I/O deadline: whichever expires first wins, and a context with no
// deadline clears any stale one.
func (c *TCPConn) deadline(ctx context.Context) time.Time {
	var dl time.Time
	if c.opTimeout > 0 {
		dl = time.Now().Add(c.opTimeout)
	}
	if d, ok := ctx.Deadline(); ok && (dl.IsZero() || d.Before(dl)) {
		dl = d
	}
	return dl
}

// armWrite/armRead push the matching I/O deadline forward before each
// frame, so the timeout bounds a stall, not a whole streamed operation.
// They are split (not one SetDeadline) so a pipeline can keep queueing
// writes while an earlier response read is in flight.
func (c *TCPConn) armWrite(ctx context.Context) error {
	return c.conn.SetWriteDeadline(c.deadline(ctx))
}

func (c *TCPConn) armRead(ctx context.Context) error {
	return c.conn.SetReadDeadline(c.deadline(ctx))
}

func (c *TCPConn) writeFrame(ctx context.Context, typ byte, payload []byte) error {
	if err := c.armWrite(ctx); err != nil {
		return err
	}
	return writeFrame(c.conn, typ, payload)
}

// handshake negotiates the protocol version lazily, on the connection's
// first operation, under that operation's deadlines — a hung server
// surfaces as a timeout on the first Execute rather than a wedged dial.
// Requesting protocol 1 skips the exchange entirely: a pure v1 client
// never sends a frame type a pre-handshake server wouldn't know.
func (c *TCPConn) handshake(ctx context.Context) error {
	if c.hsErr != nil {
		return c.hsErr
	}
	if c.negotiated != 0 {
		return nil
	}
	want := c.proto
	if want <= 0 || want > maxProtocol {
		want = maxProtocol
	}
	if want == protocolV1 {
		c.negotiated = protocolV1
		return nil
	}
	err := func() error {
		payload, err := json.Marshal(hello{MaxVersion: want})
		if err != nil {
			return err
		}
		if err := c.writeFrame(ctx, frameHello, payload); err != nil {
			return err
		}
		if err := c.armRead(ctx); err != nil {
			return err
		}
		typ, reply, err := readFrame(c.conn)
		if err != nil {
			return err
		}
		if typ != frameHello {
			return fmt.Errorf("%w: handshake answered with frame %q", ErrProtocol, typ)
		}
		var h hello
		if err := json.Unmarshal(reply, &h); err != nil {
			return fmt.Errorf("%w: handshake payload: %v", ErrProtocol, err)
		}
		if h.Version < protocolV1 || h.Version > want {
			return fmt.Errorf("%w: server negotiated unsupported version %d", ErrProtocol, h.Version)
		}
		c.negotiated = h.Version
		return nil
	}()
	if err != nil {
		c.hsErr = err
	}
	return err
}

// newRequest stamps a request with the context's trace identity and peer
// name, so the span tree a job builds client-side continues uninterrupted on
// the server.
func (c *TCPConn) newRequest(ctx context.Context, sql string) request {
	req := request{SQL: sql, Peer: obs.Peer(ctx)}
	if req.Peer == "" {
		req.Peer = c.peerName
	}
	if sc := obs.SpanContextFrom(ctx); sc.Valid() {
		req.TraceID, req.ParentID = sc.TraceID, sc.SpanID
	}
	return req
}

// nextTag issues the next request tag.
func (c *TCPConn) nextTag() uint32 {
	c.tag++
	return c.tag
}

// sendBinRequest writes one tagged binary request frame and returns its tag.
func (c *TCPConn) sendBinRequest(ctx context.Context, typ byte, sql string) (uint32, error) {
	req := c.newRequest(ctx, sql)
	tag := c.nextTag()
	err := c.writeFrame(ctx, typ, encodeBinRequest(binRequest{
		Tag:      tag,
		TraceID:  req.TraceID,
		ParentID: req.ParentID,
		Peer:     req.Peer,
		SQL:      req.SQL,
	}))
	return tag, err
}

// Execute implements client.Conn.
func (c *TCPConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	if c.negotiated < protocolV2 {
		payload, err := json.Marshal(c.newRequest(ctx, sql))
		if err != nil {
			return nil, err
		}
		if err := c.writeFrame(ctx, frameQuery, payload); err != nil {
			return nil, err
		}
		return c.readResponse(ctx)
	}
	tag, err := c.sendBinRequest(ctx, frameBinQuery, sql)
	if err != nil {
		return nil, err
	}
	return c.readBinResponse(ctx, tag, nil)
}

// ExecuteStream executes sql and delivers the result's column vectors
// batch by batch, without boxing rows: fn is called once per wire batch
// with a decoded schema, columns, and row count. The returned Result
// carries the scalar outcome (rows affected, epoch) and the schema, but
// no rows. On a v1 connection the whole result is fetched and converted to
// columns locally, so callers get identical behavior either way.
func (c *TCPConn) ExecuteStream(ctx context.Context, sql string, fn func(schema types.Schema, cols []storage.Column, nrows int) error) (*vertica.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	if c.negotiated < protocolV2 {
		res, err := c.Execute(ctx, sql)
		if err != nil {
			return nil, err
		}
		if res.Schema.NumCols() > 0 {
			var cols []storage.Column
			if len(res.Rows) > 0 {
				if cols, err = storage.ColumnsFromRows(res.Rows, res.Schema); err != nil {
					return nil, err
				}
			}
			if err := fn(res.Schema, cols, len(res.Rows)); err != nil {
				return nil, err
			}
		}
		res.Rows = nil
		return res, nil
	}
	tag, err := c.sendBinRequest(ctx, frameBinQuery, sql)
	if err != nil {
		return nil, err
	}
	return c.readBinResponse(ctx, tag, fn)
}

// CopyFrom implements client.Conn: it streams r as COPY data frames. Context
// cancellation is observed between frames; the stream is terminated so the
// server-side COPY fails cleanly rather than hanging.
func (c *TCPConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := c.handshake(ctx); err != nil {
		return nil, err
	}
	var tag uint32
	if c.negotiated < protocolV2 {
		payload, err := json.Marshal(c.newRequest(ctx, sql))
		if err != nil {
			return nil, err
		}
		if err := c.writeFrame(ctx, frameCopy, payload); err != nil {
			return nil, err
		}
	} else {
		var err error
		if tag, err = c.sendBinRequest(ctx, frameBinCopy, sql); err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 64<<10)
	for {
		if err := ctx.Err(); err != nil {
			_ = c.writeFrame(ctx, frameCopyEnd, nil)
			_, _ = c.readCopyResponse(ctx, tag)
			return nil, err
		}
		n, err := r.Read(buf)
		if n > 0 {
			if werr := c.writeFrame(ctx, frameCopyData, buf[:n]); werr != nil {
				return nil, werr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			// Still terminate the stream so the server-side COPY fails
			// cleanly rather than hanging.
			_ = c.writeFrame(ctx, frameCopyEnd, nil)
			_, _ = c.readCopyResponse(ctx, tag)
			return nil, err
		}
	}
	if err := c.writeFrame(ctx, frameCopyEnd, nil); err != nil {
		return nil, err
	}
	return c.readCopyResponse(ctx, tag)
}

func (c *TCPConn) readCopyResponse(ctx context.Context, tag uint32) (*vertica.Result, error) {
	if c.negotiated < protocolV2 {
		return c.readResponse(ctx)
	}
	return c.readBinResponse(ctx, tag, nil)
}

// Close implements client.Conn.
func (c *TCPConn) Close() { _ = c.conn.Close() }

func (c *TCPConn) readResponse(ctx context.Context) (*vertica.Result, error) {
	if err := c.armRead(ctx); err != nil {
		return nil, err
	}
	typ, payload, err := readFrame(c.conn)
	if err != nil {
		return nil, err
	}
	var resp response
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, err
	}
	switch typ {
	case frameResult:
		return resp.Result, nil
	case frameError:
		return nil, remoteError(resp.Code, resp.Error, resp.Transient)
	default:
		return nil, fmt.Errorf("server: unexpected response frame %q", typ)
	}
}

// remoteError rebuilds a server-reported error client-side: the engine
// sentinel is restored into the chain so errors.Is works across the wire
// exactly as it does in-process, and the server's transient classification
// is re-marked so remote retry decisions match local ones.
func remoteError(code, msg string, transient bool) error {
	var rerr error
	if sent := sentinelFor(code); sent != nil {
		rerr = fmt.Errorf("%w: %w: %s", ErrRemote, sent, msg)
	} else {
		rerr = fmt.Errorf("%w: %s", ErrRemote, msg)
	}
	if transient {
		return resilience.Transient(rerr)
	}
	return rerr
}

// readBinResponse reads one tagged v2 response: zero or more batch frames
// then a done or error frame. Responses arrive in request order, so a
// mismatched tag means the stream lost sync — a protocol error, not a
// recoverable condition. When stream is nil, batches are boxed into rows
// on the returned Result; otherwise each batch is handed to stream unboxed.
func (c *TCPConn) readBinResponse(ctx context.Context, tag uint32, stream func(types.Schema, []storage.Column, int) error) (*vertica.Result, error) {
	res := &vertica.Result{}
	for {
		if err := c.armRead(ctx); err != nil {
			return nil, err
		}
		typ, payload, err := readFrame(c.conn)
		if err != nil {
			return nil, err
		}
		rtag, err := tagOf(payload)
		if err != nil {
			return nil, err
		}
		if rtag != tag {
			return nil, fmt.Errorf("%w: response tag %d, want %d", ErrProtocol, rtag, tag)
		}
		switch typ {
		case frameBatch:
			if stream != nil {
				schema, cols, n, err := storage.DecodeColumns(payload[4:])
				if err != nil {
					return nil, fmt.Errorf("%w: batch payload: %v", ErrProtocol, err)
				}
				res.Schema = schema
				if err := stream(schema, cols, n); err != nil {
					return nil, err
				}
				break
			}
			schema, rows, err := storage.DecodeRows(payload[4:])
			if err != nil {
				return nil, fmt.Errorf("%w: batch payload: %v", ErrProtocol, err)
			}
			res.Schema = schema
			res.Rows = append(res.Rows, rows...)
		case frameDone:
			d, err := decodeBinDone(payload)
			if err != nil {
				return nil, err
			}
			res.RowsAffected = d.RowsAffected
			res.Epoch = d.Epoch
			res.Copy = d.Copy
			return res, nil
		case frameBinError:
			e, err := decodeBinError(payload)
			if err != nil {
				return nil, err
			}
			return nil, remoteError(e.Code, e.Msg, e.Transient)
		default:
			return nil, fmt.Errorf("%w: unexpected response frame %q", ErrProtocol, typ)
		}
	}
}

// Pipeline batches requests on one connection without waiting for their
// responses: Queue writes each request immediately, Collect reads the
// responses back in request order. One network round trip covers the whole
// batch instead of one per statement.
type Pipeline struct {
	c    *TCPConn
	tags []uint32
	err  error
}

// PipeResult is one pipelined statement's outcome.
type PipeResult struct {
	Result *vertica.Result
	Err    error
}

// Pipeline starts a request pipeline on the connection. The connection
// must not be used for other operations until Collect returns.
func (c *TCPConn) Pipeline() *Pipeline { return &Pipeline{c: c} }

// Queue writes one query request without reading its response. The first
// Queue performs the protocol handshake; pipelining needs the binary
// protocol, so a connection negotiated down to v1 refuses.
func (p *Pipeline) Queue(ctx context.Context, sql string) error {
	if p.err != nil {
		return p.err
	}
	if err := p.c.handshake(ctx); err != nil {
		p.err = err
		return err
	}
	if p.c.negotiated < protocolV2 {
		p.err = fmt.Errorf("%w: pipelining requires protocol v2, have v%d", ErrProtocol, p.c.negotiated)
		return p.err
	}
	tag, err := p.c.sendBinRequest(ctx, frameBinQuery, sql)
	if err != nil {
		p.err = err
		return err
	}
	p.tags = append(p.tags, tag)
	return nil
}

// Collect reads every queued response, in request order. Statement
// failures land in their PipeResult and later responses are still read;
// connection-level failures (I/O errors, lost frame sync) abort the whole
// collection. The pipeline is reset either way and can be reused.
func (p *Pipeline) Collect(ctx context.Context) ([]PipeResult, error) {
	tags := p.tags
	p.tags = nil
	if p.err != nil {
		err := p.err
		p.err = nil
		return nil, err
	}
	out := make([]PipeResult, 0, len(tags))
	for _, tag := range tags {
		res, err := p.c.readBinResponse(ctx, tag, nil)
		if err != nil && !errors.Is(err, ErrRemote) {
			return nil, err
		}
		out = append(out, PipeResult{Result: res, Err: err})
	}
	return out, nil
}

// DialConnector is a client.Connector over TCP: it maps the cluster node
// addresses (as reported by v_catalog.nodes) to the TCP endpoints their
// servers listen on.
type DialConnector struct {
	// Endpoints maps node address → "host:port".
	Endpoints map[string]string
	// DialTimeout bounds connection establishment (0 = DefaultDialTimeout).
	DialTimeout time.Duration
	// OpTimeout is applied to every dialed connection via SetOpTimeout
	// (0 = no per-operation deadline).
	OpTimeout time.Duration
	// Protocol caps the negotiated protocol version (0 = newest; 1 forces
	// the legacy JSON framing).
	Protocol int
}

// Connect implements client.Connector.
func (d *DialConnector) Connect(ctx context.Context, addr string) (client.Conn, error) {
	ep, ok := d.Endpoints[addr]
	if !ok {
		// Allow dialing a raw endpoint directly.
		ep = addr
	}
	dt := d.DialTimeout
	if dt <= 0 {
		dt = DefaultDialTimeout
	}
	return DialContext(ctx, ep,
		WithDialTimeout(dt),
		WithOpTimeout(d.OpTimeout),
		WithProtocol(d.Protocol),
	)
}
