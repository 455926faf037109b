package vertica

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/txn"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// Result is the outcome of one statement. A result set comes in one of two
// forms: Rows (what Execute, ExecuteContext and ExecuteStmt return), or
// Batches (what ExecuteColumns returns).
type Result struct {
	Schema types.Schema
	Rows   []types.Row
	// Batches is the column form of the result set: each batch's columns
	// follow Schema, and its selected rows, batch by batch in selection
	// order, are the result's rows. Non-nil marks the column form (Rows is
	// then nil). Batches share the storage's immutable column vectors.
	Batches      []*storage.Batch `json:"-"`
	RowsAffected int64
	// Epoch is the snapshot epoch a SELECT read at, or the commit epoch of a
	// committed write. V2S uses the former to pin all partition queries to
	// one consistent snapshot (§3.1.2).
	Epoch uint64
	// Copy carries bulk-load statistics when the statement was a COPY.
	Copy *CopyResult
}

// NumRows returns the number of rows in the result set, in either form.
func (r *Result) NumRows() int {
	if r.Batches == nil {
		return len(r.Rows)
	}
	n := 0
	for _, b := range r.Batches {
		n += b.Len()
	}
	return n
}

// rowForm boxes a column-form result set into Rows.
func (r *Result) rowForm() {
	if r.Batches != nil {
		r.Rows = materialize(r.Batches)
		r.Batches = nil
	}
}

// columnForm converts a row-form result set into column form (see
// rowBatches). A result without a schema has no result set and is left
// alone.
func (r *Result) columnForm() error {
	if r.Batches != nil || r.Schema.NumCols() == 0 {
		return nil
	}
	batches, err := rowBatches(r.Rows, r.Schema)
	if err != nil {
		return err
	}
	r.Batches, r.Rows = batches, nil
	return nil
}

// rowBatches turns rows into one dense batch whose columns follow schema,
// coercing each value to its column's declared type: engine rows are
// permissive (an expression over a FLOAT column can yield INTEGER-kinded
// values), but column vectors are strict. No rows give no batch (a non-nil
// empty slice), so a column no builder can hold (UNKNOWN) needs none.
func rowBatches(rows []types.Row, schema types.Schema) ([]*storage.Batch, error) {
	if len(rows) == 0 {
		return []*storage.Batch{}, nil
	}
	builders := storage.NewBuilders(schema)
	for _, row := range rows {
		if len(row) != len(builders) {
			return nil, fmt.Errorf("vertica: result row width %d != schema width %d", len(row), len(builders))
		}
		for j, v := range row {
			if err := builders[j].Append(coerceResult(v, schema.Cols[j].T)); err != nil {
				return nil, err
			}
		}
	}
	cols := storage.BuildAll(builders)
	return []*storage.Batch{{Schema: schema, Cols: cols, Sel: storage.DenseSel(len(rows))}}, nil
}

// coerceResult converts v to a result column's declared type (Unknown keeps
// it as is).
func coerceResult(v types.Value, want types.Type) types.Value {
	switch {
	case v.T == want || want == types.Unknown:
		return v
	case v.Null:
		return types.NullValue(want)
	case want == types.Int64:
		return types.IntValue(v.AsInt())
	case want == types.Float64:
		return types.FloatValue(v.AsFloat())
	case want == types.Bool:
		return types.BoolValue(v.AsBool())
	default:
		return types.StringValue(v.String())
	}
}

// Value returns the single value of a one-row, one-column result.
func (r *Result) Value() (types.Value, error) {
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return types.Value{}, fmt.Errorf("vertica: result is %d rows × %d cols, want 1×1", len(r.Rows), len(r.Schema.Cols))
	}
	return r.Rows[0][0], nil
}

// CopyResult reports bulk-load statistics.
type CopyResult struct {
	Loaded   int64
	Rejected int64
	// RejectedSample holds up to 10 rejected input records with reasons,
	// mirroring the connector API's rejected-row sample (§3.2).
	RejectedSample []string
}

// Session is one client connection to one node. A session is used by a
// single goroutine at a time, like a JDBC connection.
type Session struct {
	cluster *Cluster
	node    *Node
	tx      *txn.Txn // open explicit transaction, nil in autocommit

	// obsv is the caller's observer for the current statement, extracted
	// from the statement context (the sim cost recorder in benchmarks, a
	// collector in tests); peer names the connecting client's host in the
	// simulated topology (e.g. "s3"); curSQL is the statement's source text
	// for v_monitor.query_plans. All are reset per statement.
	obsv   obs.Observer
	peer   string
	curSQL string
	// copyLocal marks the current COPY as reading a node-local file, so its
	// resource event charges the node's disk instead of the network.
	copyLocal bool

	// pinRelease releases the session's explicit epoch pins (PinEpoch) on
	// UnpinEpochs or Close.
	pinRelease []func()

	// poolName is the resource pool statements are admitted through,
	// changed by SET SESSION RESOURCE_POOL. Empty means the general pool.
	poolName string

	// Query-event state, reset per statement: sysStmt marks monitoring reads
	// (they never raise events), curTrace is the statement's trace id, and
	// stmtEvents accumulates the typed events the statement raised (PROFILE
	// renders them inline).
	sysStmt    bool
	curTrace   uint64
	stmtEvents []obs.QueryEvent

	// slowQuery overrides the cluster's SLOW_QUERY threshold when
	// slowQuerySet (SET SESSION SLOW_QUERY_THRESHOLD).
	slowQuery    time.Duration
	slowQuerySet bool

	closed bool
}

// Node returns the node this session is connected to.
func (s *Session) Node() *Node { return s.node }

// Close releases the session, aborting any open transaction and dropping
// its epoch pins.
func (s *Session) Close() {
	if s.closed {
		return
	}
	if s.tx != nil {
		s.tx.Abort()
		s.tx = nil
	}
	s.UnpinEpochs()
	s.cluster.releaseSession(s.node.ID)
	s.closed = true
}

// PinEpoch pins an epoch for the session's lifetime: until UnpinEpochs (or
// Close), the tuple mover will not purge rows still visible at that epoch.
// A connector job that spreads AT EPOCH partition queries across many
// statements pins its snapshot once up front, guaranteeing every query sees
// the identical row set however many moveouts run in between (§3.1.2).
func (s *Session) PinEpoch(epoch uint64) error {
	if s.closed {
		return fmt.Errorf("vertica: session is closed")
	}
	if epoch > s.cluster.txm.LastEpoch() {
		return fmt.Errorf("vertica: epoch %d has not closed yet (last epoch %d)", epoch, s.cluster.txm.LastEpoch())
	}
	s.pinRelease = append(s.pinRelease, s.cluster.txm.PinEpoch(epoch))
	return nil
}

// UnpinEpochs releases every epoch pinned via PinEpoch.
func (s *Session) UnpinEpochs() {
	for _, rel := range s.pinRelease {
		rel()
	}
	s.pinRelease = nil
}

// InTxn reports whether an explicit transaction is open.
func (s *Session) InTxn() bool { return s.tx != nil }

// Execute parses and runs one SQL statement under a background context.
func (s *Session) Execute(sql string) (*Result, error) {
	return s.ExecuteContext(context.Background(), sql)
}

// ExecuteContext parses and runs one SQL statement, returning any result
// set as Rows. The context carries cancellation and, via obs.With /
// obs.WithPeer, the caller's observer and client-host name for the
// performance layer.
func (s *Session) ExecuteContext(ctx context.Context, sql string) (*Result, error) {
	stmt, err := vsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := s.executeStmtCtx(ctx, stmt, sql)
	if err != nil {
		return nil, err
	}
	res.rowForm()
	return res, nil
}

// ExecuteColumns is ExecuteContext returning any result set in column form
// (Result.Batches, Rows nil): a single-table scan's batches pass through
// without a value being boxed, and a row-shaped result (joins, aggregates,
// ORDER BY, computed items, views, system tables) is converted to one
// batch with each value coerced to its column's declared type. The wire
// server streams results from this form.
func (s *Session) ExecuteColumns(ctx context.Context, sql string) (*Result, error) {
	stmt, err := vsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	res, err := s.executeStmtCtx(ctx, stmt, sql)
	if err != nil {
		return nil, err
	}
	if err := res.columnForm(); err != nil {
		return nil, err
	}
	return res, nil
}

// MustExecute is Execute for setup code where failure is a bug.
func (s *Session) MustExecute(sql string) *Result {
	r, err := s.Execute(sql)
	if err != nil {
		panic(fmt.Sprintf("vertica: %v (sql: %s)", err, sql))
	}
	return r
}

// ExecuteStmt runs a parsed statement under a background context, returning
// any result set as Rows.
func (s *Session) ExecuteStmt(stmt vsql.Statement) (*Result, error) {
	res, err := s.executeStmtCtx(context.Background(), stmt, "")
	if err != nil {
		return nil, err
	}
	res.rowForm()
	return res, nil
}

// executeStmtCtx runs one statement: it binds the context's observer and
// peer to the session for the statement's duration, opens the engine-side
// "execute" span feeding v_monitor.query_requests, and dispatches.
func (s *Session) executeStmtCtx(ctx context.Context, stmt vsql.Statement, sqlText string) (*Result, error) {
	if s.closed {
		return nil, fmt.Errorf("vertica: session is closed")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.obsv = obs.From(ctx)
	s.peer = obs.Peer(ctx)
	s.curSQL = sqlText
	s.sysStmt = systemRead(stmt)
	s.curTrace = obs.SpanContextFrom(ctx).TraceID
	s.stmtEvents = nil
	release, err := s.admitStmt(ctx, stmt)
	if err != nil {
		return nil, err
	}
	if release != nil {
		defer release()
	}
	sp := s.startExecSpan(ctx, stmt, sqlText)
	if sp != nil {
		s.curTrace = sp.SpanContext().TraceID
	}
	start := time.Now()
	res, err := s.dispatch(ctx, stmt)
	dur := time.Since(start)
	if sp != nil {
		if res != nil {
			rows := int64(res.NumRows())
			if rows == 0 {
				rows = res.RowsAffected
			}
			sp.AddRows(rows)
		}
		sp.End(err)
		if thr := s.slowQueryThreshold(); thr > 0 && dur >= thr {
			s.raiseEvent(obs.EvSlowQuery, "statement exceeded slow-query threshold",
				dur.Microseconds(), thr.Microseconds())
		}
	}
	return res, err
}

// startExecSpan opens the query_requests span for a statement, parented
// under the context's active trace (a connector job phase, possibly on the
// far side of a TCP connection). Reads of the v_monitor / v_catalog virtual
// tables are exempt: monitoring queries must not pollute the history they
// observe.
func (s *Session) startExecSpan(ctx context.Context, stmt vsql.Statement, sqlText string) *obs.ActiveSpan {
	if systemRead(stmt) {
		return nil
	}
	sp := obs.StartChild(ctx, s.cluster.mon, "execute", s.node.Name)
	if sp == nil {
		return nil
	}
	sp.SetPeer(s.peer)
	if sqlText == "" {
		sqlText = fmt.Sprintf("%T", stmt)
	}
	sp.SetDetail(sqlText)
	return sp
}

// systemRead reports whether stmt is a SELECT over a system table.
func systemRead(stmt vsql.Statement) bool {
	sel, ok := stmt.(*vsql.Select)
	if !ok || sel.From == nil {
		return false
	}
	return strings.HasPrefix(sel.From.Name, "v_monitor.") || strings.HasPrefix(sel.From.Name, "v_catalog.")
}

// dispatch routes a parsed statement to its executor.
func (s *Session) dispatch(ctx context.Context, stmt vsql.Statement) (*Result, error) {
	switch s.node.State() {
	case NodeDown:
		return nil, fmt.Errorf("%w: node %d went down", ErrNodeDown, s.node.ID)
	case NodeRemoved:
		return nil, fmt.Errorf("%w: node %d", ErrNodeRemoved, s.node.ID)
	case NodeRecovering:
		// A recovering node serves only monitoring reads (an operator watching
		// v_monitor.node_states through the node itself); everything else
		// waits for the catch-up to finish and reports as a transient
		// node-down condition so resilient clients fail over.
		if !systemRead(stmt) {
			return nil, fmt.Errorf("%w: node %d is recovering", ErrNodeDown, s.node.ID)
		}
	}
	switch st := stmt.(type) {
	case *vsql.Select:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedQuery})
		return s.executeSelect(st)
	case *vsql.Profile:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedQuery})
		return s.executeProfile(st)
	case *vsql.Explain:
		return s.executeExplain(st)
	case *vsql.Insert:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedQuery})
		return s.executeInsert(st)
	case *vsql.Update:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedQuery})
		return s.executeUpdate(st)
	case *vsql.Delete:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedQuery})
		return s.executeDelete(st)
	case *vsql.CreateTable:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedTableDDL})
		return s.executeCreateTable(st)
	case *vsql.DropTable:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedTableDDL})
		return s.executeDropTable(st)
	case *vsql.CreateView:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedTableDDL})
		return s.executeCreateView(st)
	case *vsql.DropView:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedTableDDL})
		return s.executeDropView(st)
	case *vsql.AlterRename:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedTableDDL})
		return s.executeRename(st)
	case *vsql.AlterCluster:
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedTableDDL})
		return s.executeAlterCluster(st)
	case *vsql.CreateResourcePool:
		return s.executeCreatePool(st)
	case *vsql.AlterResourcePool:
		return s.executeAlterPool(st)
	case *vsql.DropResourcePool:
		return s.executeDropPool(st)
	case *vsql.Set:
		return s.executeSet(st)
	case *vsql.Begin:
		if s.tx != nil {
			return nil, fmt.Errorf("vertica: transaction already open")
		}
		s.tx = s.cluster.txm.Begin()
		return &Result{}, nil
	case *vsql.Commit:
		if s.tx == nil {
			return &Result{}, nil // COMMIT outside txn is a no-op
		}
		epoch, err := s.tx.Commit()
		s.tx = nil
		if err != nil {
			return nil, err
		}
		s.record(sim.Event{Type: sim.FixedEv, FixedKind: sim.FixedCommit})
		return &Result{Epoch: epoch}, nil
	case *vsql.Rollback:
		if s.tx != nil {
			s.tx.Abort()
			s.tx = nil
		}
		return &Result{}, nil
	case *vsql.Copy:
		if st.FromStdin {
			return nil, fmt.Errorf("vertica: COPY FROM STDIN requires CopyFrom with a data stream")
		}
		return s.executeCopyFile(ctx, st)
	default:
		return nil, fmt.Errorf("vertica: unsupported statement %T", stmt)
	}
}

// CopyFrom runs a COPY ... FROM STDIN statement, reading the encoded data
// from r. This is the engine half of the VerticaCopyStream API (§3.2.2).
func (s *Session) CopyFrom(sql string, r io.Reader) (*Result, error) {
	return s.CopyFromContext(context.Background(), sql, r)
}

// CopyFromContext is CopyFrom with cancellation: cancelling ctx mid-stream
// fails the load, and with it the load's transaction — an explicit txn is
// left for the caller's ROLLBACK, an autocommit load writes nothing.
func (s *Session) CopyFromContext(ctx context.Context, sql string, r io.Reader) (*Result, error) {
	stmt, err := vsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	cp, ok := stmt.(*vsql.Copy)
	if !ok {
		return nil, fmt.Errorf("vertica: CopyFrom requires a COPY statement, got %T", stmt)
	}
	if !cp.FromStdin {
		return nil, fmt.Errorf("vertica: CopyFrom requires COPY ... FROM STDIN")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.obsv = obs.From(ctx)
	s.peer = obs.Peer(ctx)
	s.sysStmt = false
	s.curTrace = obs.SpanContextFrom(ctx).TraceID
	s.stmtEvents = nil
	release, err := s.admit(ctx, "copy", copyMemEstimate)
	if err != nil {
		return nil, err
	}
	defer release()
	if ctx.Done() != nil {
		r = &ctxReader{ctx: ctx, r: r}
	}
	return s.executeCopyStream(ctx, cp, r)
}

// ctxReader fails the stream once its context is cancelled, so a COPY parse
// loop observes cancellation at its next read.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c *ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}

// txnForWrite returns the transaction to run a write under and whether it
// must be committed at statement end (autocommit).
func (s *Session) txnForWrite() (tx *txn.Txn, auto bool) {
	if s.tx != nil {
		return s.tx, false
	}
	return s.cluster.txm.Begin(), true
}

// finishWrite commits autocommit transactions and maps the result epoch.
func (s *Session) finishWrite(tx *txn.Txn, auto bool, res *Result) (*Result, error) {
	if !auto {
		return res, nil
	}
	epoch, err := tx.Commit()
	if err != nil {
		return nil, err
	}
	res.Epoch = epoch
	s.maybeMoveout()
	return res, nil
}

// maybeMoveout triggers the tuple mover when WOS buffers grow past the
// configured threshold. Moveout respects the Ancient History Mark, so rows a
// pinned AT EPOCH reader can still see are never purged out from under it.
// On a durable cluster the moveout is a full checkpoint (persist containers,
// truncate the WAL).
func (s *Session) maybeMoveout() {
	limit := s.cluster.cfg.WOSMoveoutRows
	if limit <= 0 {
		return
	}
	over := false
	ahm := s.cluster.txm.AHM()
	for _, t := range s.cluster.cat.Tables() {
		for _, st := range t.Stores {
			if st.WOSLen() > limit {
				over = true
				if !s.cluster.durable() {
					_ = st.Moveout(ahm)
				}
			}
		}
	}
	if over && s.cluster.durable() {
		_ = s.cluster.Checkpoint()
	}
}

// record forwards a resource-usage event to the statement's observer; the
// sim.Recorder observer unwraps the payload into the cost trace.
func (s *Session) record(e sim.Event) {
	if s.obsv != nil {
		s.obsv.Event(obs.Event{Name: "sim", Node: s.node.Name, Payload: e})
	}
}

// vis returns the read context for the current statement: the open
// transaction's view, or a fresh read-committed snapshot.
func (s *Session) vis() visibility {
	if s.tx != nil {
		return visibility{v: s.tx.Vis()}
	}
	return visibility{v: snapshotVis(s.cluster)}
}
