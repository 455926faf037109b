package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/obs"
	"vsfabric/internal/vertica"
)

// Statement classes the tracer tells apart. Span names are "client." plus
// the class.
const (
	classConnect = "connect"
	classData    = "data"    // V2S partition reads (pinned-epoch SELECTs)
	classCopy    = "copy"    // COPY ... FROM STDIN
	classPublish = "publish" // the S2V phase-5 move of staged rows into the target
	classControl = "control" // everything else: catalog, epoch, DDL, status, txn control
)

// classify names the class of a statement the connector sends.
func classify(sql string) string {
	u := strings.ToUpper(strings.TrimSpace(sql))
	switch {
	case strings.HasPrefix(u, "AT EPOCH"):
		return classData
	case strings.HasPrefix(u, "INSERT INTO") && strings.Contains(u, " SELECT "),
		strings.HasPrefix(u, "ALTER TABLE") && strings.Contains(u, " RENAME "):
		return classPublish
	default:
		return classControl
	}
}

// tracer is a client.Connector decorator. While on, it dials through the
// byte-counting relays and wraps every connection so that each Connect,
// Execute and CopyFrom gets a span in col; the span's identity rides the
// context to the engine, whose execute/copy spans then parent under it.
// While off it hands out the plain connections of the direct connector.
type tracer struct {
	col     *obs.Collector
	on      atomic.Bool
	plain   client.Connector
	relayed client.Connector

	// copyWait is the time COPY consumers spent blocked reading the
	// connector's encoded stream; copyBytes is what they read.
	copyWait  atomic.Int64
	copyBytes atomic.Int64
}

// spanCap bounds the tracer's span store; a traced phase that outgrows it
// is reported as a loss rather than silently undercounted.
const spanCap = 1 << 17

func newTracer(plain, relayed client.Connector) *tracer {
	return &tracer{col: obs.NewCollectorCap(spanCap), plain: plain, relayed: relayed}
}

// Connect implements client.Connector.
func (t *tracer) Connect(ctx context.Context, addr string) (client.Conn, error) {
	if !t.on.Load() {
		return t.plain.Connect(ctx, addr)
	}
	sp := t.start(ctx, classConnect, addr)
	c, err := t.relayed.Connect(ctx, addr)
	sp.End(err)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, t: t, addr: addr}, nil
}

func (t *tracer) start(ctx context.Context, class, addr string) *obs.ActiveSpan {
	sp := obs.StartChild(ctx, t.col, "client."+class, addr)
	sp.SetPeer(obs.Peer(ctx))
	return sp
}

// tracedConn is one traced session.
type tracedConn struct {
	inner client.Conn
	t     *tracer
	addr  string
}

func (c *tracedConn) Execute(ctx context.Context, sql string) (*vertica.Result, error) {
	sp := c.t.start(ctx, classify(sql), c.addr)
	sp.SetDetail(sql)
	res, err := c.inner.Execute(obs.WithSpan(ctx, sp), sql)
	if res != nil {
		sp.AddRows(int64(len(res.Rows)))
	}
	sp.End(err)
	return res, err
}

func (c *tracedConn) CopyFrom(ctx context.Context, sql string, r io.Reader) (*vertica.Result, error) {
	sp := c.t.start(ctx, classCopy, c.addr)
	sp.SetDetail(sql)
	cr := &countingReader{r: r}
	res, err := c.inner.CopyFrom(obs.WithSpan(ctx, sp), sql, cr)
	if res != nil && res.Copy != nil {
		sp.AddRows(res.Copy.Loaded)
	}
	sp.AddBytes(cr.n)
	c.t.copyBytes.Add(cr.n)
	c.t.copyWait.Add(int64(cr.wait))
	sp.End(err)
	return res, err
}

func (c *tracedConn) Close() { c.inner.Close() }

// countingReader counts the bytes a COPY consumer reads and the time it
// spends blocked waiting for them. One goroutine reads it.
type countingReader struct {
	r    io.Reader
	n    int64
	wait time.Duration
}

func (c *countingReader) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.r.Read(p)
	c.wait += time.Since(t0)
	c.n += int64(n)
	return n, err
}

// relay is a byte-counting TCP forwarder in front of one node's listener.
type relay struct {
	ln       net.Listener
	target   string
	up, down atomic.Int64 // client→server and server→client bytes

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func startRelay(target string) (*relay, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &relay{ln: ln, target: target, conns: map[net.Conn]struct{}{}}
	r.wg.Add(1)
	go r.accept()
	return r, nil
}

func (r *relay) addr() string { return r.ln.Addr().String() }

func (r *relay) accept() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.wg.Add(1)
		go r.pipe(c)
	}
}

// track registers live connections so close can sever them.
func (r *relay) track(cs ...net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		r.conns[c] = struct{}{}
	}
}

func (r *relay) untrack(cs ...net.Conn) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range cs {
		delete(r.conns, c)
	}
}

func (r *relay) pipe(c net.Conn) {
	defer r.wg.Done()
	s, err := net.Dial("tcp", r.target)
	if err != nil {
		_ = c.Close()
		return
	}
	r.track(c, s)
	defer r.untrack(c, s)
	var wg sync.WaitGroup
	wg.Add(2)
	forward := func(dst, src net.Conn, n *atomic.Int64) {
		defer wg.Done()
		_, _ = io.Copy(countingWriter{dst, n}, src)
		// Either side hanging up ends the session in both directions.
		_ = dst.Close()
		_ = src.Close()
	}
	go forward(s, c, &r.up)
	go forward(c, s, &r.down)
	wg.Wait()
}

// close stops accepting, severs live connections and waits for every
// forwarding goroutine to end.
func (r *relay) close() {
	_ = r.ln.Close()
	r.mu.Lock()
	for c := range r.conns {
		_ = c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

type countingWriter struct {
	w io.Writer
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.w.Write(p)
	w.n.Add(int64(n))
	return n, err
}

// harvester copies the engine's spans out of the cluster collector's
// bounded ring after every job, before later jobs can overwrite them, and
// counts any it was too late for.
type harvester struct {
	col    *obs.Collector
	lastID uint64
	spans  []obs.Span
	lost   uint64
}

// skip marks every span recorded so far as already seen.
func (h *harvester) skip() {
	for _, sp := range h.col.Spans() {
		h.lastID = max(h.lastID, sp.ID)
	}
}

// take appends the spans recorded since the last call. Concurrent sessions
// can land spans in the ring out of ID order, so the new ones are sorted
// before gaps are counted; take runs between jobs, when no span is in
// flight.
func (h *harvester) take() {
	var fresh []obs.Span
	for _, sp := range h.col.Spans() {
		if sp.ID > h.lastID {
			fresh = append(fresh, sp)
		}
	}
	sort.Slice(fresh, func(i, j int) bool { return fresh[i].ID < fresh[j].ID })
	for _, sp := range fresh {
		h.lost += sp.ID - h.lastID - 1
		h.lastID = sp.ID
	}
	h.spans = append(h.spans, fresh...)
}

// lostSpans reports how many spans the tracer's own store overwrote.
func (t *tracer) lostSpans() int64 {
	var total int64
	for name, n := range t.col.Counters() {
		if strings.HasPrefix(name, "span.") {
			total += n
		}
	}
	return total - int64(len(t.col.Spans()))
}

// writeTrace writes every span of the traced phase as one Chrome trace.
func writeTrace(path string, groups ...[]obs.Span) error {
	n := 0
	for _, g := range groups {
		n += len(g)
	}
	out := obs.NewCollectorCap(n)
	for _, g := range groups {
		for _, sp := range g {
			out.SpanEnd(sp)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := out.WriteChromeTrace(f); err != nil {
		_ = f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
