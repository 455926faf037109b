package vertica

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vhash"
	"vsfabric/internal/vsql"
)

// visibility wraps the storage read context for the executor.
type visibility struct{ v storage.Visibility }

func snapshotVis(c *Cluster) storage.Visibility {
	return storage.Visibility{Epoch: c.txm.LastEpoch()}
}

// scanStats accumulates the per-query resource accounting that becomes one
// QueryFlowEv for the performance layer, plus the optional per-operator
// profile a PROFILE statement collects.
type scanStats struct {
	scanRows map[string]float64
	shuffle  map[[2]string]float64
	prof     *queryProfile // nil unless the query runs under PROFILE

	// Planner/pruning accounting for v_monitor.query_plans (see recordPlan).
	table       string // anchor relation; "" when no base table was scanned
	joinOrder   string // chosen join order; "" for single-table queries
	estRows     int64  // planner cardinality estimate (0 = derive from scanRows)
	pushdown    string // "count", "group-by", or "" for a plain scan
	vectorized  bool   // the batch pipeline ran (vs row-at-a-time reference)
	contScanned int64  // ROS containers decoded
	contPruned  int64  // ROS containers skipped via zone maps
	contNoStats int64  // ROS containers that could not be pruned for lack of stats
}

func newScanStats() *scanStats {
	return &scanStats{scanRows: make(map[string]float64), shuffle: make(map[[2]string]float64)}
}

// executeSelect plans and runs a SELECT.
func (s *Session) executeSelect(st *vsql.Select) (*Result, error) {
	return s.executeSelectProf(st, nil)
}

// executeSelectProf is executeSelect with optional operator profiling.
func (s *Session) executeSelectProf(st *vsql.Select, qp *queryProfile) (*Result, error) {
	// Resolve the read snapshot: AT EPOCH pins it; otherwise read-committed.
	vis := s.vis().v
	if st.AtEpoch != nil && !st.AtEpoch.Latest {
		if st.AtEpoch.N > s.cluster.txm.LastEpoch() {
			return nil, fmt.Errorf("vertica: epoch %d has not closed yet (last epoch %d)", st.AtEpoch.N, s.cluster.txm.LastEpoch())
		}
		vis.Epoch = st.AtEpoch.N
	}
	// Pin the snapshot for the statement's duration so a concurrent moveout
	// cannot purge rows this scan is entitled to see (the AHM stays at or
	// below vis.Epoch until the scan finishes).
	release := s.cluster.txm.PinEpoch(vis.Epoch)
	defer release()
	if err := s.bindSelectFuncs(st); err != nil {
		return nil, err
	}

	stats := newScanStats()
	stats.prof = qp
	if res, ok, err := s.tryCountPushdown(st, vis, stats); err != nil {
		return nil, err
	} else if ok {
		return s.finishSelect(res, stats, vis.Epoch), nil
	}
	if res, ok, err := s.tryVectorizedAgg(st, vis, stats, qp); err != nil {
		return nil, err
	} else if ok {
		return s.finishSelect(res, stats, vis.Epoch), nil
	}
	if res, ok, err := s.tryColumnSelect(st, vis, stats, qp); err != nil {
		return nil, err
	} else if ok {
		return s.finishSelect(res, stats, vis.Epoch), nil
	}
	if hasAggregates(st) || len(st.GroupBy) > 0 {
		// The vectorized hash-aggregation pushdown declined: this aggregate
		// runs on the row-at-a-time reference path. Say why.
		detail := "aggregation shape not eligible for vectorized kernels"
		switch {
		case s.cluster.cfg.RowAtATimeScans:
			detail = "RowAtATimeScans ablation forces the row-at-a-time path"
		case len(st.Joins) > 0:
			detail = "aggregate over a join runs row-at-a-time"
		case st.From != nil && !baseTableOnly(s, st.From):
			detail = "aggregate over a non-base relation runs row-at-a-time"
		}
		s.raiseEvent(obs.EvGroupByFallback, detail, 0, 0)
	}
	rows, schema, err := s.sourceRows(st, vis, stats)
	if err != nil {
		return nil, err
	}
	projStart := profClock(qp)
	out, outSchema, err := project(st, rows, schema, qp)
	if err != nil {
		return nil, err
	}
	profileProject(qp, st, len(rows), len(out), projStart)
	return s.finishSelect(&Result{Schema: outSchema, Rows: out}, stats, vis.Epoch), nil
}

// finishSelect records a completed SELECT's accounting and stamps its
// snapshot epoch.
func (s *Session) finishSelect(res *Result, stats *scanStats, epoch uint64) *Result {
	s.recordQuery(res, stats)
	s.recordPlan(stats, res.NumRows(), epoch)
	res.Epoch = epoch
	return res
}

// profileProject adds the project (and LIMIT) operator rows to a PROFILE.
func profileProject(qp *queryProfile, st *vsql.Select, rowsIn, rowsOut int, start time.Time) {
	if qp == nil {
		return
	}
	qp.add(opStat{
		name: "project", rowsIn: int64(rowsIn), rowsOut: int64(rowsOut),
		dur: time.Since(start), detail: projectDetail(st),
	})
	if st.Limit >= 0 {
		qp.add(opStat{
			name: "limit", rowsIn: int64(rowsOut), rowsOut: int64(rowsOut),
			detail: fmt.Sprintf("LIMIT %d", st.Limit),
		})
	}
}

// tryColumnSelect answers a single-table SELECT whose select list only picks
// columns (star, plain columns, aliases) straight from the scan's batches:
// the result is the filtered batches with their columns picked as the list
// says (reordered, duplicated, renamed), LIMIT already applied to the
// selection vectors. No value is boxed here; the in-process API materializes
// rows at return and the wire server streams the columns as they are. Joins,
// aggregates, ORDER BY, computed items, views and system tables decline to
// the row path.
func (s *Session) tryColumnSelect(st *vsql.Select, vis storage.Visibility, stats *scanStats, qp *queryProfile) (*Result, bool, error) {
	if s.cluster.cfg.RowAtATimeScans || st.From == nil || len(st.Joins) > 0 || len(st.GroupBy) > 0 ||
		len(st.OrderBy) > 0 || hasAggregates(st) || !baseTableOnly(s, st.From) {
		return nil, false, nil
	}
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return nil, false, nil // let the general path report the error
	}
	opts := scanOpts{needCols: neededColumns(st), limit: st.Limit}
	_, scanSchema := resolveNeedCols(tbl.Def.Schema, opts.needCols)
	pick, outSchema, ok := columnPick(st.Items, scanSchema)
	if !ok {
		return nil, false, nil
	}
	batches, _, _, err := s.scanTable(tbl, st.Where, vis, stats, opts)
	if err != nil {
		return nil, false, err
	}
	projStart := profClock(qp)
	out := make([]*storage.Batch, len(batches))
	for i, b := range batches {
		cols := make([]storage.Column, len(pick))
		for j, ci := range pick {
			cols[j] = b.Cols[ci]
		}
		out[i] = &storage.Batch{Schema: outSchema, Cols: cols, Sel: b.Sel}
	}
	res := &Result{Schema: outSchema, Batches: out}
	n := res.NumRows()
	profileProject(qp, st, n, n, projStart)
	return res, true, nil
}

// columnPick maps a select list of star, plain-column and aliased-column
// items onto schema indexes, with the output names and types projectScalar
// gives them. Any other item, or a name the schema cannot resolve, returns
// false: the row path evaluates (or reports) it.
func columnPick(items []vsql.SelectItem, schema types.Schema) ([]int, types.Schema, bool) {
	var pick []int
	var out types.Schema
	for _, it := range items {
		if it.Star {
			for i, c := range schema.Cols {
				pick = append(pick, i)
				out.Cols = append(out.Cols, c)
			}
			continue
		}
		col, isCol := it.Expr.(*expr.Col)
		if !isCol {
			return nil, types.Schema{}, false
		}
		i := schema.ColIndex(col.Name)
		if i < 0 {
			return nil, types.Schema{}, false
		}
		name := it.Alias
		if name == "" {
			name = col.Name
		}
		pick = append(pick, i)
		out.Cols = append(out.Cols, types.Column{Name: name, T: schema.Cols[i].T})
	}
	return pick, out, true
}

// profClock reads the clock only when profiling, keeping the common path
// free of time syscalls.
func profClock(qp *queryProfile) time.Time {
	if qp == nil {
		return time.Time{}
	}
	return time.Now()
}

// projectDetail summarizes what the projection operator did.
func projectDetail(st *vsql.Select) string {
	var parts []string
	if hasAggregates(st) {
		parts = append(parts, "aggregate")
	}
	if len(st.GroupBy) > 0 {
		parts = append(parts, fmt.Sprintf("group by %d cols", len(st.GroupBy)))
	}
	if len(st.OrderBy) > 0 {
		parts = append(parts, fmt.Sprintf("order by %d keys", len(st.OrderBy)))
	}
	if len(parts) == 0 {
		return fmt.Sprintf("%d items", len(st.Items))
	}
	return strings.Join(parts, ", ")
}

// tryCountPushdown answers SELECT COUNT(*) FROM basetable [WHERE ...]
// entirely from the vectorized scan's selection-vector popcounts, without
// materializing a single row — the engine half of the connector's COUNT
// pushdown (§3.1.1). Queries with joins, grouping, views, or system tables
// fall through to the general path.
func (s *Session) tryCountPushdown(st *vsql.Select, vis storage.Visibility, stats *scanStats) (*Result, bool, error) {
	if !countPushdownEligible(s, st) {
		return nil, false, nil
	}
	it := st.Items[0]
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return nil, false, nil // let the general path report the error
	}
	stats.pushdown = "count"
	_, count, _, err := s.scanTable(tbl, st.Where, vis, stats, scanOpts{limit: -1, countOnly: true})
	if err != nil {
		return nil, false, err
	}
	colName := it.Alias
	if colName == "" {
		colName = "count"
	}
	rows := []types.Row{{types.IntValue(count)}}
	if st.Limit >= 0 && int64(len(rows)) > st.Limit {
		rows = rows[:st.Limit]
	}
	return &Result{
		Schema: types.Schema{Cols: []types.Column{{Name: colName, T: types.Int64}}},
		Rows:   rows,
	}, true, nil
}

// countPushdownEligible reports whether a SELECT is exactly COUNT(*) over a
// base table — the shape tryCountPushdown (and EXPLAIN) answers from
// selection-vector popcounts.
func countPushdownEligible(s *Session, st *vsql.Select) bool {
	if s.cluster.cfg.RowAtATimeScans {
		return false // ablation knob: exercise the reference path
	}
	if st.From == nil || len(st.Joins) > 0 || len(st.GroupBy) > 0 || len(st.Items) != 1 {
		return false
	}
	it := st.Items[0]
	if it.Agg != vsql.AggCount || it.Arg != nil {
		return false
	}
	return baseTableOnly(s, st.From)
}

// baseTableOnly reports whether tr names a catalog base table (not a system
// table or a view).
func baseTableOnly(s *Session, tr *vsql.TableRef) bool {
	name := strings.ToLower(tr.Name)
	if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
		return false
	}
	if _, isView := s.cluster.cat.View(tr.Name); isView {
		return false
	}
	return true
}

func (s *Session) bindSelectFuncs(st *vsql.Select) error {
	for _, it := range st.Items {
		if it.Expr != nil {
			if err := s.cluster.bindFuncs(it.Expr); err != nil {
				return err
			}
		}
		if it.Arg != nil {
			if err := s.cluster.bindFuncs(it.Arg); err != nil {
				return err
			}
		}
	}
	if st.Where != nil {
		return s.cluster.bindFuncs(st.Where)
	}
	return nil
}

// sourceRows produces the filtered input row set of a SELECT (before
// projection/aggregation): base table scan with hash-range pushdown, view
// expansion, system tables, and the optional equi-join pipeline.
func (s *Session) sourceRows(st *vsql.Select, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	if st.From == nil {
		// FROM-less SELECT evaluates items once against an empty row.
		return []types.Row{{}}, types.Schema{}, nil
	}
	if len(st.Joins) > 0 {
		return s.joinedRows(st, vis, stats)
	}
	opts := scanOpts{limit: -1}
	// Late materialization: only the columns the SELECT list, aggregate
	// arguments, and GROUP BY actually touch are materialized from the
	// column store. The WHERE clause needs no materialization at all —
	// it is evaluated on the column vectors.
	opts.needCols = neededColumns(st)
	// LIMIT pushes into the scan only when each scanned row maps 1:1 to
	// an output row: no aggregation, no grouping, no reordering.
	if !hasAggregates(st) && len(st.GroupBy) == 0 && len(st.OrderBy) == 0 && st.Limit >= 0 {
		opts.limit = st.Limit
	}
	// relationRows applies the WHERE clause during the scan.
	return s.relationRows(st.From, st.Where, vis, stats, opts)
}

// joinedRows runs the planner-ordered join pipeline: each step hash-joins the
// accumulated left side with the next relation (vectorized when the inputs
// convert to column vectors), then the residual WHERE filters the result.
// The WHERE clause may reference both sides, so join inputs scan unfiltered.
func (s *Session) joinedRows(st *vsql.Select, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	plan := s.planJoins(st)
	stats.joinOrder = plan.orderString()
	stats.estRows = plan.estOut
	steps := plan.steps

	// lref qualifies the left side's column names at the first join only;
	// later steps see an already-qualified accumulated schema.
	lref := st.From
	var rows []types.Row
	var schema types.Schema
	// preRight carries a right side already scanned by the batch-native
	// attempt into the general loop, so a fallback never scans it twice.
	var preRight []types.Row
	var preRightSchema types.Schema
	havePre := false

	// Batch-native first step: when the anchor is a base table, its columnar
	// batches feed the typed join table directly and only matched pairs box
	// into rows — the probe side never materializes. Ineligible shapes fall
	// through to the materialize-then-join path below.
	if len(steps) > 0 && !s.cluster.cfg.RowAtATimeScans && baseTableOnly(s, st.From) {
		if tbl, ok := s.cluster.cat.Table(st.From.Name); ok {
			step := steps[0]
			right, rightSchema, err := s.relationRows(&step.clause.Right, nil, vis, stats, scanOpts{limit: -1})
			if err != nil {
				return nil, types.Schema{}, err
			}
			joinStart := profClock(stats.prof)
			joined, joinedSchema, nLeft, ok, err := s.batchJoinStep(tbl, st.From, &step.clause.Right, step.clause, step.buildLeft, right, rightSchema, vis, stats)
			if err != nil {
				return nil, types.Schema{}, err
			}
			if ok {
				stats.vectorized = true
				buildRows := int64(len(right))
				if step.buildLeft {
					buildRows = nLeft
				}
				s.raiseJoinBuildEvent(buildRows, buildSideName(step.buildLeft), step.clause.LeftCol, step.clause.RightCol)
				if stats.prof != nil {
					build := "right"
					if step.buildLeft {
						build = "left"
					}
					stats.prof.add(opStat{
						name: "join", rowsIn: nLeft + int64(len(right)), rowsOut: int64(len(joined)),
						vecRows: nLeft + int64(len(right)), dur: time.Since(joinStart),
						detail: fmt.Sprintf("vectorized hash join %s = %s, build %s side, batch-native probe", step.clause.LeftCol, step.clause.RightCol, build),
					})
				}
				rows, schema = joined, joinedSchema
				lref = nil
				steps = steps[1:]
			} else {
				preRight, preRightSchema = right, rightSchema
				havePre = true
			}
		}
	}
	if lref != nil {
		var err error
		rows, schema, err = s.relationRows(st.From, nil, vis, stats, scanOpts{limit: -1})
		if err != nil {
			return nil, types.Schema{}, err
		}
	}
	if stats.table == "" {
		stats.table = st.From.Name
	}
	for _, step := range steps {
		right, rightSchema := preRight, preRightSchema
		if havePre {
			havePre = false
		} else {
			var err error
			right, rightSchema, err = s.relationRows(&step.clause.Right, nil, vis, stats, scanOpts{limit: -1})
			if err != nil {
				return nil, types.Schema{}, err
			}
		}
		joinStart := profClock(stats.prof)
		joined, joinedSchema, vec, err := s.hashJoinStep(rows, schema, lref, right, rightSchema, &step.clause.Right, step.clause, step.buildLeft)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if vec {
			stats.vectorized = true
		}
		buildRows := int64(len(right))
		if step.buildLeft {
			buildRows = int64(len(rows))
		}
		s.raiseJoinBuildEvent(buildRows, buildSideName(step.buildLeft), step.clause.LeftCol, step.clause.RightCol)
		if stats.prof != nil {
			kind := "hash join"
			if vec {
				kind = "vectorized hash join"
			}
			build := "right"
			if step.buildLeft {
				build = "left"
			}
			vecRows := int64(0)
			if vec {
				vecRows = int64(len(rows) + len(right))
			}
			stats.prof.add(opStat{
				name: "join", rowsIn: int64(len(rows) + len(right)), rowsOut: int64(len(joined)),
				vecRows: vecRows, dur: time.Since(joinStart),
				detail: fmt.Sprintf("%s %s = %s, build %s side", kind, step.clause.LeftCol, step.clause.RightCol, build),
			})
		}
		rows, schema = joined, joinedSchema
		lref = nil
	}
	// Residual WHERE over the joined rows.
	filterStart := profClock(stats.prof)
	out := rows[:0]
	for _, r := range rows {
		ok, err := expr.EvalPredicate(st.Where, r, &schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if ok {
			out = append(out, r)
		}
	}
	if stats.prof != nil && st.Where != nil {
		stats.prof.add(opStat{
			name: "filter", rowsIn: int64(len(rows)), rowsOut: int64(len(out)),
			resRows: int64(len(rows)), dur: time.Since(filterStart), detail: "post-join residual",
		})
	}
	return out, schema, nil
}

// buildSideName names a hash join's build side for event details.
func buildSideName(buildLeft bool) string {
	if buildLeft {
		return "left"
	}
	return "right"
}

// hasAggregates reports whether any select item aggregates.
func hasAggregates(st *vsql.Select) bool {
	for _, it := range st.Items {
		if it.Agg != "" {
			return true
		}
	}
	return false
}

// scanOpts carries the scan-level pushdowns of one relation scan.
type scanOpts struct {
	// needCols narrows the scanned batches (and so whatever is later
	// materialized from them) to the named columns; nil keeps every column.
	// Ignored for views and system tables, whose rows exist in row form
	// already.
	needCols []string
	// limit stops the scan once this many rows have been produced; -1 = no
	// limit. Callers only set it when scan rows map 1:1 to output rows.
	limit int64
	// countOnly returns no batches, only the visible-and-matching row count
	// from selection-vector popcounts.
	countOnly bool
	// profile turns on kernel-vs-residual work accounting in segment scans
	// (the PROFILE path).
	profile bool
}

// relationRows scans one relation. When where is non-nil the predicate is
// applied during the scan (and the hash-range conjuncts are pushed into the
// segment scan); opts carries the LIMIT and column-pruning pushdowns.
func (s *Session) relationRows(tr *vsql.TableRef, where expr.Expr, vis storage.Visibility, stats *scanStats, opts scanOpts) ([]types.Row, types.Schema, error) {
	name := strings.ToLower(tr.Name)
	if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
		rows, schema, err := s.systemTable(name, vis)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return filterRows(rows, schema, where, opts.limit)
	}
	if view, ok := s.cluster.cat.View(tr.Name); ok {
		sub, err := vsql.Parse(view.SelectSQL)
		if err != nil {
			return nil, types.Schema{}, fmt.Errorf("vertica: view %q definition: %w", view.Name, err)
		}
		subSel, ok := sub.(*vsql.Select)
		if !ok {
			return nil, types.Schema{}, fmt.Errorf("vertica: view %q is not a SELECT", view.Name)
		}
		if err := s.bindSelectFuncs(subSel); err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, err := s.sourceRows(subSel, vis, stats)
		if err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, err = project2(subSel, rows, schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return filterRows(rows, schema, where, opts.limit)
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return nil, types.Schema{}, fmt.Errorf("vertica: relation %q does not exist", tr.Name)
	}
	if s.cluster.cfg.RowAtATimeScans {
		return s.profiledRowAtATimeScan(tbl, where, vis, stats)
	}
	batches, _, schema, err := s.scanTable(tbl, where, vis, stats, opts)
	if err != nil {
		return nil, types.Schema{}, err
	}
	return materialize(batches), schema, nil
}

// filterRows applies a residual predicate to materialized rows, stopping at
// limit surviving rows (-1 = no limit).
func filterRows(rows []types.Row, schema types.Schema, where expr.Expr, limit int64) ([]types.Row, types.Schema, error) {
	if where == nil {
		if limit >= 0 && int64(len(rows)) > limit {
			rows = rows[:limit]
		}
		return rows, schema, nil
	}
	out := make([]types.Row, 0, len(rows))
	for _, r := range rows {
		if limit >= 0 && int64(len(out)) >= limit {
			break
		}
		ok, err := expr.EvalPredicate(where, r, &schema)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if ok {
			out = append(out, r)
		}
	}
	return out, schema, nil
}

// neededColumns collects the table columns a single-table SELECT actually
// reads after the scan: select-list expressions, aggregate arguments, and
// GROUP BY keys. ORDER BY is excluded on purpose — it sorts the projected
// output, so its keys must already appear in the select list. A star item
// (or any name the scan schema cannot resolve, e.g. a view about to be
// expanded) returns nil: materialize everything.
func neededColumns(st *vsql.Select) []string {
	var names []string
	for _, it := range st.Items {
		if it.Star {
			return nil
		}
		if it.Expr != nil {
			names = it.Expr.Columns(names)
		}
		if it.Arg != nil {
			names = it.Arg.Columns(names)
		}
	}
	names = append(names, st.GroupBy...)
	seen := make(map[string]bool, len(names))
	out := names[:0]
	for _, n := range names {
		key := strings.ToLower(n)
		if !seen[key] {
			seen[key] = true
			out = append(out, n)
		}
	}
	return out
}

// scanConcurrency bounds the parallel segment-scan worker pool.
var scanConcurrency = runtime.GOMAXPROCS(0)

// segJob is one segment's share of a table scan.
type segJob struct {
	store    *storage.Store
	homeNode int
}

// segResult is the outcome of scanning one segment.
type segResult struct {
	batches     []*storage.Batch
	count       int64
	scanRows    float64
	shuffleB    float64           // bytes gathered to the coordinator (0 when local)
	fstats      vexec.FilterStats // kernel/residual work split (profile scans only)
	contSeen    int64             // ROS containers considered
	contPruned  int64             // ROS containers skipped via zone maps
	contNoStats int64             // ROS containers with prunable predicates but no stats
	err         error
}

// buildSegJobs lists the (store, home node) pairs a table scan visits:
// the local replica for unsegmented tables, otherwise every segment whose
// hash range intersects hr, failing over to buddies for down nodes.
func (s *Session) buildSegJobs(tbl *catalog.Table, hr vhash.Range) ([]segJob, error) {
	var jobs []segJob
	if !tbl.Def.Segmented {
		// Unsegmented tables are replicated everywhere: serve entirely from
		// the connected node's local replica (zero shuffle).
		store, homeNode, err := s.replicaFor(tbl, s.localPos(tbl))
		if err != nil {
			return nil, err
		}
		return append(jobs, segJob{store, homeNode}), nil
	}
	segs := tbl.SegmentRanges()
	for i := range tbl.Stores {
		// Skip segments the requested hash range cannot touch.
		if segs[i].Lo >= hr.Hi || segs[i].Hi <= hr.Lo {
			continue
		}
		store, homeNode, err := s.replicaFor(tbl, i)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, segJob{store, homeNode})
	}
	return jobs, nil
}

// pruneFunc returns the container-level zone-map filter for a compiled
// predicate. Every ROS container carrying stats is counted; those whose zone
// maps prove the predicate matches no row are skipped without building a
// selection vector. Pruning on stats that cover deleted rows too is a sound
// superset test: excluding [min, max] excludes every visible row.
func (s *Session) pruneFunc(pred *vexec.Pred, res *segResult) func([]storage.ColStats, int) bool {
	zoneable := pred.HasZoneChecks()
	check := zoneable && !s.cluster.cfg.NoZoneMapPruning
	return func(stats []storage.ColStats, rowCount int) bool {
		res.contSeen++
		if len(stats) == 0 {
			// Container carries no zone maps: a prunable predicate loses its
			// chance here. Counted so the engine can raise a query event.
			if zoneable {
				res.contNoStats++
			}
			return false
		}
		if check && pred.CanPrune(stats, rowCount) {
			res.contPruned++
			return true
		}
		return false
	}
}

// profiledRowAtATimeScan runs the retained reference scan the
// RowAtATimeScans ablation knob selects, adding its PROFILE row.
func (s *Session) profiledRowAtATimeScan(tbl *catalog.Table, where expr.Expr, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	if stats.table == "" {
		stats.table = tbl.Def.Name
	}
	scanStart := profClock(stats.prof)
	rows, schema, err := s.scanTableRowAtATime(tbl, where, vis, stats)
	if stats.prof != nil && err == nil {
		total := int64(0)
		for _, n := range stats.scanRows {
			total += int64(n)
		}
		stats.prof.add(opStat{
			name: "scan " + tbl.Def.Name, rowsIn: total, rowsOut: int64(len(rows)),
			resRows: total, dur: time.Since(scanStart), detail: "row-at-a-time reference",
		})
	}
	return rows, schema, err
}

// scanTable scans a base table under the read context on the vectorized
// batch pipeline: hash-range conjuncts prune segments, the residual
// predicate is compiled to typed column kernels (vexec), and segments fan
// out over a bounded worker pool. It hands back the filtered batches (the
// containers' shared immutable columns, narrowed to the needed columns, plus
// selection vectors) without boxing a value, with the returned schema
// describing their columns. With countOnly the scan completes from
// selection-vector popcounts and returns no batches. Results are
// deterministic: segments are merged in segment order, matching the
// sequential reference scan.
func (s *Session) scanTable(tbl *catalog.Table, where expr.Expr, vis storage.Visibility, stats *scanStats, opts scanOpts) ([]*storage.Batch, int64, types.Schema, error) {
	if stats.table == "" {
		stats.table = tbl.Def.Name
	}
	stats.vectorized = true
	scanStart := profClock(stats.prof)
	if stats.prof != nil {
		opts.profile = true
	}
	schema := tbl.Def.Schema
	hr, residual := extractHashRange(where, tbl)
	pred := vexec.Compile(residual, schema, tbl.SegIdx)
	needIdx, outSchema := resolveNeedCols(schema, opts.needCols)

	jobs, err := s.buildSegJobs(tbl, hr)
	if err != nil {
		return nil, 0, types.Schema{}, err
	}

	results := make([]segResult, len(jobs))
	runSegJobs(len(jobs), func(i int) {
		results[i] = s.scanSegment(jobs[i], vis, hr, pred, needIdx, outSchema, opts)
	})

	// Deterministic merge in segment order; per-segment stats fold into the
	// query's accounting on the coordinating goroutine only.
	var out []*storage.Batch
	var count int64
	var fstats vexec.FilterStats
	var scanned, contSeen, contNoStats int64
	for i, res := range results {
		if res.err != nil {
			return nil, 0, types.Schema{}, res.err
		}
		stats.scanRows[sim.VName(jobs[i].homeNode)] += res.scanRows
		if res.shuffleB > 0 {
			stats.shuffle[[2]string{sim.VName(jobs[i].homeNode), s.node.Name}] += res.shuffleB
		}
		count += res.count
		scanned += int64(res.scanRows)
		fstats.KernelRows += res.fstats.KernelRows
		fstats.ResidualRows += res.fstats.ResidualRows
		stats.contScanned += res.contSeen - res.contPruned
		stats.contPruned += res.contPruned
		stats.contNoStats += res.contNoStats
		contSeen += res.contSeen
		contNoStats += res.contNoStats
		out = append(out, res.batches...)
	}
	s.raiseZoneMapSkipped(tbl.Def.Name, pred.HasZoneChecks(), contNoStats, contSeen)
	if opts.limit >= 0 {
		out = limitBatches(out, opts.limit)
	}
	if stats.prof != nil {
		rowsOut := int64(0)
		for _, b := range out {
			rowsOut += int64(b.Len())
		}
		if opts.countOnly {
			rowsOut = count
		}
		detail := fmt.Sprintf("%d segments, %d kernels", len(jobs), pred.NumKernels())
		if stats.contPruned > 0 {
			detail += fmt.Sprintf(", zone maps pruned %d/%d containers", stats.contPruned, stats.contPruned+stats.contScanned)
		}
		if opts.countOnly {
			detail += ", count pushdown"
		}
		if opts.limit >= 0 {
			detail += fmt.Sprintf(", limit %d pushed down", opts.limit)
		}
		stats.prof.add(opStat{
			name: "scan " + tbl.Def.Name, rowsIn: scanned, rowsOut: rowsOut,
			vecRows: fstats.KernelRows, resRows: fstats.ResidualRows,
			dur: time.Since(scanStart), detail: detail,
		})
	}
	return out, count, outSchema, nil
}

// materialize boxes the selected rows of bs into one types.Row each, batch
// by batch in selection order. It is the one place a scan's output turns
// into rows, for the operators that need them (joins, row-path aggregation,
// ORDER BY, computed select items, views, INSERT..SELECT) and for the
// in-process result API. Batches box in parallel over the segment-scan
// worker pool, each into its own slots of the presized result. Zero
// selected rows return nil.
func materialize(bs []*storage.Batch) []types.Row {
	offs := make([]int, len(bs)+1)
	for i, b := range bs {
		offs[i+1] = offs[i] + b.Len()
	}
	if offs[len(bs)] == 0 {
		return nil
	}
	out := make([]types.Row, offs[len(bs)])
	runSegJobs(len(bs), func(i int) {
		copy(out[offs[i]:offs[i+1]], bs[i].Materialize(nil))
	})
	return out
}

// runSegJobs runs fn(0..n-1) over the bounded segment-scan worker pool.
func runSegJobs(n int, fn func(int)) {
	if workers := min(scanConcurrency, n); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n {
						return
					}
					fn(i)
				}
			}()
		}
		wg.Wait()
	}
}

// limitBatches keeps the first limit selected rows of bs, trimming the
// selection vector of the batch the limit falls in.
func limitBatches(bs []*storage.Batch, limit int64) []*storage.Batch {
	for i, b := range bs {
		if int64(b.Len()) >= limit {
			b.Sel = b.Sel[:limit]
			if limit == 0 {
				return bs[:i]
			}
			return bs[:i+1]
		}
		limit -= int64(b.Len())
	}
	return bs
}

// scanSegment runs one segment's batched scan: visibility + hash mask come
// pre-applied in each batch's selection vector, kernels narrow it, and the
// survivors are kept as batches narrowed to the needed columns (schema
// describes them) or just counted.
func (s *Session) scanSegment(job segJob, vis storage.Visibility, hr vhash.Range, pred *vexec.Pred, needIdx []int, schema types.Schema, opts scanOpts) segResult {
	res := segResult{scanRows: float64(job.store.TotalRows())}
	local := job.homeNode == s.node.ID
	var fs *vexec.FilterStats
	if opts.profile {
		fs = &res.fstats
	}
	err := job.store.ScanBatchesPruned(vis, hr, s.pruneFunc(pred, &res), func(b *storage.Batch) bool {
		if err := pred.FilterBatchStats(b, fs); err != nil {
			res.err = err
			return false
		}
		if opts.countOnly {
			res.count += int64(b.Len())
			return true
		}
		if opts.limit >= 0 {
			if remain := opts.limit - res.count; int64(b.Len()) > remain {
				b.Sel = b.Sel[:remain]
			}
		}
		if b.Len() > 0 {
			if needIdx != nil {
				cols := make([]storage.Column, len(needIdx))
				for j, ci := range needIdx {
					cols[j] = b.Cols[ci]
				}
				b = &storage.Batch{Schema: schema, Cols: cols, Hashes: b.Hashes, Sel: b.Sel}
			}
			res.batches = append(res.batches, b)
			res.count += int64(b.Len())
			if !local {
				res.shuffleB += float64(batchWireSize(b))
			}
		}
		// Stop this segment once it alone can satisfy the LIMIT; the merge
		// keeps segment order, so the first rows win deterministically.
		return !(opts.limit >= 0 && res.count >= opts.limit)
	})
	if err != nil && res.err == nil {
		res.err = err
	}
	return res
}

// resolveNeedCols maps the needed column names onto schema indexes, in
// schema order, and builds the narrowed output schema. Unresolvable names
// (or a nil request) fall back to every column.
func resolveNeedCols(schema types.Schema, needCols []string) ([]int, types.Schema) {
	if needCols == nil {
		return nil, schema
	}
	need := make([]bool, len(schema.Cols))
	for _, n := range needCols {
		i := schema.ColIndex(n)
		if i < 0 {
			return nil, schema
		}
		need[i] = true
	}
	idx := make([]int, 0, len(needCols))
	out := types.Schema{}
	for i, b := range need {
		if b {
			idx = append(idx, i)
			out.Cols = append(out.Cols, schema.Cols[i])
		}
	}
	return idx, out
}

// scanTableRowAtATime is the retained row-at-a-time reference scan: one
// boxed types.Value per cell, one delete-vector RLock per row, one
// interpreted predicate evaluation per row. It is the baseline the
// vectorized pipeline is benchmarked against (BenchmarkScanRowAtATime, the
// vectorized-vs-interpreted property tests, and the RowAtATimeScans
// ablation) and must keep semantics identical to scanTable.
func (s *Session) scanTableRowAtATime(tbl *catalog.Table, where expr.Expr, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	schema := tbl.Def.Schema
	hr, residual := extractHashRange(where, tbl)
	var out []types.Row

	appendMatches := func(store *storage.Store, homeNode int) error {
		var scanErr error
		nodeName := sim.VName(homeNode)
		stats.scanRows[nodeName] += float64(store.TotalRows())
		store.Scan(vis, hr, func(r types.Row) bool {
			ok, err := expr.EvalPredicate(residual, r, &schema)
			if err != nil {
				scanErr = err
				return false
			}
			if ok {
				row := r.Clone()
				out = append(out, row)
				if homeNode != s.node.ID {
					stats.shuffle[[2]string{sim.VName(homeNode), s.node.Name}] += float64(types.WireSize(row))
				}
			}
			return true
		})
		return scanErr
	}

	if !tbl.Def.Segmented {
		// Unsegmented tables are replicated everywhere: serve entirely from
		// the connected node's local replica (zero shuffle).
		store, homeNode, err := s.replicaFor(tbl, s.localPos(tbl))
		if err != nil {
			return nil, types.Schema{}, err
		}
		if err := appendMatches(store, homeNode); err != nil {
			return nil, types.Schema{}, err
		}
		return out, schema, nil
	}

	segs := tbl.SegmentRanges()
	for i := range tbl.Stores {
		// Skip segments the requested hash range cannot touch.
		if segs[i].Lo >= hr.Hi || segs[i].Hi <= hr.Lo {
			continue
		}
		store, homeNode, err := s.replicaFor(tbl, i)
		if err != nil {
			return nil, types.Schema{}, err
		}
		if err := appendMatches(store, homeNode); err != nil {
			return nil, types.Schema{}, err
		}
	}
	return out, schema, nil
}

// replicaFor returns the store serving ring position pos of the table, plus
// the ID of the node actually serving, failing over to a buddy replica on a
// surviving node when the position's own node is not UP. Only UP nodes serve
// reads: a DOWN or RECOVERING node's stores may be missing writes it slept
// through.
func (s *Session) replicaFor(tbl *catalog.Table, pos int) (*storage.Store, int, error) {
	if s.cluster.nodeUp(tbl.Ring[pos]) {
		return tbl.Stores[pos], tbl.Ring[pos], nil
	}
	n := len(tbl.Ring)
	for r := range tbl.Buddies {
		// Buddy replica r of position pos lives at ring position (pos+r+1)
		// mod n.
		host := (pos + r + 1) % n
		if s.cluster.nodeUp(tbl.Ring[host]) {
			return tbl.Buddies[r][host], tbl.Ring[host], nil
		}
	}
	if !tbl.Def.Segmented {
		// Unsegmented tables are fully replicated: any live node serves.
		for p := range tbl.Stores {
			if s.cluster.nodeUp(tbl.Ring[p]) {
				return tbl.Stores[p], tbl.Ring[p], nil
			}
		}
	}
	return nil, 0, fmt.Errorf("vertica: segment %d of table %q unavailable (node down, k-safety exhausted)", pos, tbl.Def.Name)
}

// localPos returns the connected node's position in the table's ring, or 0
// when the node is not in it (a freshly added node, pre-rebalance, serves
// from position 0's replica set).
func (s *Session) localPos(tbl *catalog.Table) int {
	if p := tbl.PosOf(s.node.ID); p >= 0 {
		return p
	}
	return 0
}

// extractHashRange pulls `HASH(segcols) >= lo` / `HASH(segcols) < hi`
// conjuncts matching the table's segmentation out of the predicate, returning
// the combined ring range and the residual predicate. This is the engine
// optimization that makes the connector's locality-aware partition queries
// (§3.1.2) cheap: the range test runs against precomputed segment hashes.
func extractHashRange(where expr.Expr, tbl *catalog.Table) (vhash.Range, expr.Expr) {
	full := vhash.Range{Lo: 0, Hi: vhash.RingSize}
	if where == nil {
		return full, nil
	}
	conjuncts := splitConjuncts(where, nil)
	hr := full
	var residual []expr.Expr
	for _, c := range conjuncts {
		lo, hi, ok := hashBound(c, tbl)
		if !ok {
			residual = append(residual, c)
			continue
		}
		if lo != nil && *lo > hr.Lo {
			hr.Lo = *lo
		}
		if hi != nil && *hi < hr.Hi {
			hr.Hi = *hi
		}
	}
	return hr, expr.Conjoin(residual...)
}

func splitConjuncts(e expr.Expr, dst []expr.Expr) []expr.Expr {
	if a, ok := e.(*expr.And); ok {
		return splitConjuncts(a.R, splitConjuncts(a.L, dst))
	}
	return append(dst, e)
}

// hashBound recognizes HASH(cols) CMP literal conjuncts over the table's
// segmentation expression and converts them to ring bounds.
func hashBound(e expr.Expr, tbl *catalog.Table) (lo, hi *uint64, ok bool) {
	cmp, isCmp := e.(*expr.Cmp)
	if !isCmp {
		return nil, nil, false
	}
	h, isHash := cmp.L.(*expr.HashFn)
	lit, isLit := cmp.R.(*expr.Lit)
	if !isHash || !isLit || lit.V.Null {
		return nil, nil, false
	}
	if !hashMatchesSegmentation(h, tbl) {
		return nil, nil, false
	}
	n := lit.V.AsInt()
	if n < 0 {
		n = 0
	}
	u := uint64(n)
	switch cmp.Op {
	case expr.GE:
		return &u, nil, true
	case expr.GT:
		v := u + 1
		return &v, nil, true
	case expr.LT:
		return nil, &u, true
	case expr.LE:
		v := u + 1
		return nil, &v, true
	default:
		return nil, nil, false
	}
}

// hashMatchesSegmentation reports whether a HASH(...) call computes exactly
// the table's segmentation hash: HASH(*) for synthetic-hash relations
// (unsegmented tables), or HASH(c1, ..., ck) naming the segmentation columns
// in order.
func hashMatchesSegmentation(h *expr.HashFn, tbl *catalog.Table) bool {
	if len(h.Args) == 0 {
		// HASH(*): matches when the table's per-row hashes are whole-row
		// synthetic hashes, i.e. no explicit segmentation columns.
		return len(tbl.SegIdx) == 0
	}
	if len(h.Args) != len(tbl.SegIdx) {
		return false
	}
	for i, a := range h.Args {
		col, ok := a.(*expr.Col)
		if !ok {
			return false
		}
		if tbl.Def.Schema.ColIndex(col.Name) != tbl.SegIdx[i] {
			return false
		}
	}
	return true
}

// hashJoinStep performs one inner equi-join of the planner's pipeline:
// resolve the ON columns against the two input schemas, qualify the output
// column names (the left side only at the first step — lref is nil once the
// left input is itself a join result), then join vectorized when both inputs
// convert to column vectors, falling back to the boxed row join otherwise.
// Both paths emit identical rows in identical left-major order, whichever
// side the hash table is built on.
func (s *Session) hashJoinStep(left []types.Row, ls types.Schema, lref *vsql.TableRef,
	right []types.Row, rs types.Schema, rref *vsql.TableRef, jc *vsql.JoinClause, buildLeft bool) ([]types.Row, types.Schema, bool, error) {
	li := resolveJoinCol(ls, jc.LeftCol)
	ri := resolveJoinCol(rs, jc.RightCol)
	// The ON columns may be written either way around; try swapping.
	if li < 0 || ri < 0 {
		li = resolveJoinCol(ls, jc.RightCol)
		ri = resolveJoinCol(rs, jc.LeftCol)
	}
	if li < 0 || ri < 0 {
		return nil, types.Schema{}, false, fmt.Errorf("vertica: join columns %q/%q not found", jc.LeftCol, jc.RightCol)
	}
	out := types.Schema{}
	for _, c := range ls.Cols {
		name := c.Name
		if lref != nil {
			name = qualify(lref, c.Name)
		}
		out.Cols = append(out.Cols, types.Column{Name: name, T: c.T})
	}
	for _, c := range rs.Cols {
		out.Cols = append(out.Cols, types.Column{Name: qualify(rref, c.Name), T: c.T})
	}
	if !s.cluster.cfg.RowAtATimeScans {
		if rows, ok := vectorJoin(left, ls, li, right, rs, ri, buildLeft); ok {
			return rows, out, true, nil
		}
	}
	rows := rowHashJoin(left, li, right, ri)
	return rows, out, false, nil
}

// batchJoinStep is the batch-native first join: the anchor table scans as
// columnar batches (segment-parallel, WHERE-free — the residual applies after
// all joins) and vexec.JoinBatches probes them against the right side's typed
// key table. Only matched pairs box into rows, so a selective join skips the
// dominant cost of the materialize-then-join path: building boxed rows for
// every probe-side input. nLeft reports the visible left rows for profiling.
// ok=false (no error) means the shape isn't eligible — unresolvable ON
// columns or a right side that won't columnize — and the caller falls back.
func (s *Session) batchJoinStep(tbl *catalog.Table, base, rref *vsql.TableRef, jc *vsql.JoinClause, buildLeft bool,
	right []types.Row, rs types.Schema, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, int64, bool, error) {
	schema := tbl.Def.Schema
	li := resolveJoinCol(schema, jc.LeftCol)
	ri := resolveJoinCol(rs, jc.RightCol)
	// The ON columns may be written either way around; try swapping.
	if li < 0 || ri < 0 {
		li = resolveJoinCol(schema, jc.RightCol)
		ri = resolveJoinCol(rs, jc.LeftCol)
	}
	if li < 0 || ri < 0 {
		return nil, types.Schema{}, 0, false, nil
	}
	rcols, err := storage.ColumnsFromRows(right, rs)
	if err != nil {
		// Type drift in the right side's rows (view output, stored-type
		// drift): fall back to the boxed join.
		return nil, types.Schema{}, 0, false, nil
	}

	scanStart := profClock(stats.prof)
	pred := vexec.Compile(nil, schema, tbl.SegIdx)
	hr, _ := extractHashRange(nil, tbl)
	jobs, err := s.buildSegJobs(tbl, hr)
	if err != nil {
		return nil, types.Schema{}, 0, false, err
	}
	type segBatches struct {
		segResult
		batches []*storage.Batch
	}
	results := make([]segBatches, len(jobs))
	runSegJobs(len(jobs), func(i int) {
		res := &results[i]
		res.scanRows = float64(jobs[i].store.TotalRows())
		err := jobs[i].store.ScanBatchesPruned(vis, hr, s.pruneFunc(pred, &res.segResult), func(b *storage.Batch) bool {
			if len(b.Sel) > 0 {
				res.batches = append(res.batches, b)
			}
			return true
		})
		if err != nil {
			res.err = err
		}
	})
	var left []*storage.Batch
	var nLeft, scanned int64
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, types.Schema{}, 0, false, res.err
		}
		stats.scanRows[sim.VName(jobs[i].homeNode)] += res.scanRows
		scanned += int64(res.scanRows)
		stats.contScanned += res.contSeen
		for _, b := range res.batches {
			nLeft += int64(len(b.Sel))
		}
		left = append(left, res.batches...)
	}
	if stats.table == "" {
		stats.table = tbl.Def.Name
	}
	if stats.prof != nil {
		stats.prof.add(opStat{
			name: "scan " + tbl.Def.Name, rowsIn: scanned, rowsOut: nLeft, vecRows: nLeft,
			dur: time.Since(scanStart), detail: fmt.Sprintf("%d segments, batch-native join input", len(jobs)),
		})
	}

	out := types.Schema{}
	for _, c := range schema.Cols {
		out.Cols = append(out.Cols, types.Column{Name: qualify(base, c.Name), T: c.T})
	}
	for _, c := range rs.Cols {
		out.Cols = append(out.Cols, types.Column{Name: qualify(rref, c.Name), T: c.T})
	}
	rb := []*storage.Batch{{Schema: rs, Cols: rcols, Sel: allSel(len(right))}}
	var rows []types.Row
	vexec.JoinBatches(left, li, rb, ri, buildLeft, func(lb, lr, _, rr int32) {
		row := make(types.Row, 0, len(out.Cols))
		for _, c := range left[lb].Cols {
			row = append(row, c.Get(int(lr)))
		}
		for _, c := range rcols {
			row = append(row, c.Get(int(rr)))
		}
		rows = append(rows, row)
	})
	return rows, out, nLeft, true, nil
}

// resolveJoinCol finds a join column in a schema: the full (possibly
// qualified) name first — ColIndex's suffix fallback handles a qualified name
// against an unqualified base-table schema, and exact match handles it
// against an already-qualified join schema — then the bare column name.
func resolveJoinCol(schema types.Schema, name string) int {
	if i := schema.ColIndex(name); i >= 0 {
		return i
	}
	return schema.ColIndex(stripQualifier(name))
}

// vectorJoin joins via the typed batch kernels (vexec.JoinBatches): the
// inputs are converted to column vectors, the build side's key table is
// populated without boxing, and only matching pairs materialize rows. ok is
// false when an input cannot be column-encoded (untyped values from view
// projections); the caller falls back to the row join.
func vectorJoin(left []types.Row, ls types.Schema, li int, right []types.Row, rs types.Schema, ri int, buildLeft bool) ([]types.Row, bool) {
	lcols, err := storage.ColumnsFromRows(left, ls)
	if err != nil {
		return nil, false
	}
	rcols, err := storage.ColumnsFromRows(right, rs)
	if err != nil {
		return nil, false
	}
	lb := &storage.Batch{Schema: ls, Cols: lcols, Sel: allSel(len(left))}
	rb := &storage.Batch{Schema: rs, Cols: rcols, Sel: allSel(len(right))}
	width := len(ls.Cols) + len(rs.Cols)
	var rows []types.Row
	vexec.JoinBatches([]*storage.Batch{lb}, li, []*storage.Batch{rb}, ri, buildLeft, func(_, lr, _, rr int32) {
		row := make(types.Row, 0, width)
		for _, c := range lcols {
			row = append(row, c.Get(int(lr)))
		}
		for _, c := range rcols {
			row = append(row, c.Get(int(rr)))
		}
		rows = append(rows, row)
	})
	return rows, true
}

// allSel builds the identity selection vector of length n.
func allSel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// rowHashJoin is the retained boxed-row reference join: build the hash table
// on the right input, probe the left in order. The ablation/equivalence
// oracle for vectorJoin.
func rowHashJoin(left []types.Row, li int, right []types.Row, ri int) []types.Row {
	ht := make(map[joinKey][]types.Row, len(right))
	for _, r := range right {
		k, ok := joinKeyOf(r[ri])
		if !ok {
			continue
		}
		ht[k] = append(ht[k], r)
	}
	var rows []types.Row
	for _, l := range left {
		k, ok := joinKeyOf(l[li])
		if !ok {
			continue
		}
		for _, r := range ht[k] {
			row := make(types.Row, 0, len(l)+len(r))
			row = append(row, l...)
			row = append(row, r...)
			rows = append(rows, row)
		}
	}
	return rows
}

// joinKey is a typed, comparable hash-join key. Values of the same family
// equal each other per types.Compare (so INTEGER 1 joins FLOAT 1.0), while
// values of different families never collide — unlike the old string-rendered
// keys, where IntValue(1) and StringValue("1") were indistinguishable. Being
// a value type, it also costs no allocation per build/probe.
type joinKey struct {
	kind byte // 'i' integral numeric, 'f' non-integral float, 's' string, 'b' bool
	i    int64
	f    float64
	s    string
	b    bool
}

// joinKeyOf builds the key for v; ok is false for NULLs (which never join).
func joinKeyOf(v types.Value) (joinKey, bool) {
	if v.Null {
		return joinKey{}, false
	}
	switch v.T {
	case types.Int64:
		return joinKey{kind: 'i', i: v.I}, true
	case types.Float64:
		// Integral floats normalize to the int form so 1.0 matches INTEGER 1,
		// mirroring types.Compare's numeric promotion. Magnitudes beyond the
		// int64-exact range stay in float form.
		if f := v.F; f == math.Trunc(f) && f >= -(1<<62) && f <= 1<<62 {
			return joinKey{kind: 'i', i: int64(f)}, true
		}
		return joinKey{kind: 'f', f: v.F}, true
	case types.Varchar:
		return joinKey{kind: 's', s: v.S}, true
	case types.Bool:
		return joinKey{kind: 'b', b: v.B}, true
	default:
		return joinKey{}, false
	}
}

func stripQualifier(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

func qualify(tr *vsql.TableRef, col string) string {
	q := tr.Alias
	if q == "" {
		q = tr.Name
	}
	return q + "." + col
}

// recordQuery emits the QueryFlowEv for a completed SELECT.
func (s *Session) recordQuery(res *Result, stats *scanStats) {
	if s.obsv == nil {
		return
	}
	bytes := 0
	for _, b := range res.Batches {
		bytes += batchTextWireSize(b)
	}
	for _, r := range res.Rows {
		bytes += textWireSize(r)
	}
	s.record(sim.Event{
		Type:        sim.QueryFlowEv,
		VNode:       s.node.Name,
		CNode:       s.peer,
		ResultBytes: float64(bytes),
		ResultRows:  float64(res.NumRows()),
		ScanRows:    stats.scanRows,
		Shuffle:     stats.shuffle,
	})
}

// textWireSize models the client protocol's text row encoding — the reason
// the paper's D1 moves ~2.3 KB/row on the JDBC wire (Table 2's 120 MBps x 4
// nodes x 475 s ≈ 228 GB for 100M rows) even though its CSV is 1.4 KB/row:
// the protocol renders FLOATs at full width regardless of stored precision.
func textWireSize(r types.Row) int {
	n := 0
	for _, v := range r {
		n += 4
		if v.Null {
			continue
		}
		if v.T == types.Float64 {
			n += 19
			continue
		}
		n += len(v.String())
	}
	return n
}

// batchTextWireSize is textWireSize summed over a batch's selected rows,
// computed per column without formatting a value: every value (NULL
// included) costs its 4-byte length word, and a non-NULL integer adds its
// decimal digits and sign, a string its length, a bool "true" or "false",
// a FLOAT the fixed 19.
func batchTextWireSize(b *storage.Batch) int {
	n := 4 * len(b.Sel) * len(b.Cols)
	for _, c := range b.Cols {
		switch col := c.(type) {
		case *storage.Int64Column:
			for _, i := range b.Sel {
				if !isNull(col.Nulls, i) {
					n += decimalLen(col.Vals[i])
				}
			}
		case *storage.Float64Column:
			for _, i := range b.Sel {
				if !isNull(col.Nulls, i) {
					n += 19
				}
			}
		case *storage.StringColumn:
			for _, i := range b.Sel {
				if !isNull(col.Nulls, i) {
					n += len(col.Vals[i])
				}
			}
		case *storage.BoolColumn:
			for _, i := range b.Sel {
				if isNull(col.Nulls, i) {
					continue
				}
				n += 5 // "false"
				if col.Vals[i] {
					n-- // "true"
				}
			}
		default:
			for _, i := range b.Sel {
				switch v := c.Get(int(i)); {
				case v.Null:
				case v.T == types.Int64:
					n += decimalLen(v.I)
				case v.T == types.Float64:
					n += 19
				default:
					n += len(v.String())
				}
			}
		}
	}
	return n
}

// isNull reads a column's null bitmap (nil means no NULLs).
func isNull(nulls []bool, i int32) bool { return nulls != nil && nulls[i] }

// decimalLen is len(strconv.FormatInt(v, 10)).
func decimalLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// batchWireSize is types.WireSize summed over a batch's selected rows: the
// fixed width of each column type, plus the lengths of non-NULL strings.
func batchWireSize(b *storage.Batch) int {
	n := 0
	for _, c := range b.Cols {
		switch c.Type() {
		case types.Int64, types.Float64:
			n += 8 * len(b.Sel)
		case types.Bool:
			n += len(b.Sel)
		case types.Varchar:
			n += 4 * len(b.Sel)
			for _, i := range b.Sel {
				if v := c.Get(int(i)); !v.Null {
					n += len(v.S)
				}
			}
		}
	}
	return n
}
