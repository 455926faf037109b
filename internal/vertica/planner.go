package vertica

import (
	"fmt"
	"strings"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/obs"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file is the cost-based planner stage: multi-way joins are ordered by
// estimated cardinality (smallest build side first), each join's build side
// is the smaller of its two inputs, and single-table scans consult the
// per-container zone maps to count how much of the table a predicate can
// prune. EXPLAIN <select> renders these decisions without executing.

// estUnknown is the cardinality assigned to relations the planner cannot
// size (views, system tables): large, so they are attached last and never
// chosen as a build side over a sized base table.
const estUnknown = int64(1) << 40

// joinStep is one planned join: the clause, which side the hash table is
// built on, and the right relation's cardinality estimate.
type joinStep struct {
	clause    *vsql.JoinClause
	buildLeft bool
	estRight  int64
}

// queryPlan is the planner's output for a join pipeline.
type queryPlan struct {
	baseEst int64
	estOut  int64
	steps   []*joinStep
	order   []string // relation display names in chosen attach order
}

// orderString renders the chosen join order ("orders JOIN customers").
func (p *queryPlan) orderString() string { return strings.Join(p.order, " JOIN ") }

// relationEst estimates a relation's cardinality from catalog statistics:
// the physical row count across its primary stores (one store for replicated
// unsegmented tables). Views and system tables are unsized.
func (s *Session) relationEst(tr *vsql.TableRef) int64 {
	name := strings.ToLower(tr.Name)
	if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
		return estUnknown
	}
	if _, ok := s.cluster.cat.View(tr.Name); ok {
		return estUnknown
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return estUnknown
	}
	if !tbl.Def.Segmented {
		return int64(tbl.Stores[0].TotalRows())
	}
	var n int64
	for _, st := range tbl.Stores {
		n += int64(st.TotalRows())
	}
	return n
}

// displayName is the alias if present, else the table name.
func displayName(tr *vsql.TableRef) string {
	if tr.Alias != "" {
		return tr.Alias
	}
	return tr.Name
}

// qualifierOf returns the lowercased qualifier of a possibly dotted column
// reference ("o.cid" → "o"), or "" when unqualified.
func qualifierOf(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return strings.ToLower(name[:i])
	}
	return ""
}

// clauseConnects reports whether a join clause's ON condition can reference
// the already-attached relations: one of its columns is qualified by an
// attached alias/name, or either column is unqualified (those resolve against
// the accumulated schema at execution time).
func clauseConnects(jc *vsql.JoinClause, attached map[string]bool) bool {
	lq, rq := qualifierOf(jc.LeftCol), qualifierOf(jc.RightCol)
	if lq == "" || rq == "" {
		return true
	}
	return attached[lq] || attached[rq]
}

// planJoins orders the query's joins by estimated cardinality: starting from
// the FROM relation, it repeatedly attaches the connectable clause whose
// right relation is smallest (ties and unconnectable leftovers fall back to
// syntactic order), and builds each join's hash table on the smaller input.
// The batch join pipeline and the test suite's row-at-a-time reference
// both follow this plan, so they attach relations in the same order.
func (s *Session) planJoins(st *vsql.Select) *queryPlan {
	p := &queryPlan{baseEst: s.relationEst(st.From)}
	p.order = []string{displayName(st.From)}
	attached := make(map[string]bool, 1+len(st.Joins))
	attach := func(tr *vsql.TableRef) {
		attached[strings.ToLower(tr.Name)] = true
		if tr.Alias != "" {
			attached[strings.ToLower(tr.Alias)] = true
		}
	}
	attach(st.From)
	remaining := append([]*vsql.JoinClause(nil), st.Joins...)
	estLeft := p.baseEst
	for len(remaining) > 0 {
		best := -1
		var bestEst int64
		for i, jc := range remaining {
			if !clauseConnects(jc, attached) {
				continue
			}
			est := s.relationEst(&jc.Right)
			if best < 0 || est < bestEst {
				best, bestEst = i, est
			}
		}
		if best < 0 {
			// Nothing connects (a cross-reference the executor will reject, or
			// aliases the planner cannot see through): keep syntactic order.
			best, bestEst = 0, s.relationEst(&remaining[0].Right)
		}
		jc := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		p.steps = append(p.steps, &joinStep{clause: jc, estRight: bestEst, buildLeft: estLeft < bestEst})
		attach(&jc.Right)
		p.order = append(p.order, displayName(&jc.Right))
		// FK-style equi-joins keep roughly the larger side's cardinality.
		if bestEst > estLeft {
			estLeft = bestEst
		}
	}
	p.estOut = estLeft
	return p
}

// scanPlanInfo is what EXPLAIN reports about one base-table scan.
type scanPlanInfo struct {
	containers int64
	pruned     int64
	segments   int
	kernels    int
	zoneChecks bool
}

// explainScan sizes a base-table scan at plan time: how many ROS containers
// the serving replicas hold, and how many of them the predicate's zone-map
// checks exclude outright. Mirrors scanTable's replica selection so the
// counts match what execution would do.
func (s *Session) explainScan(tbl *catalog.Table, where expr.Expr) (scanPlanInfo, error) {
	info := scanPlanInfo{}
	hr, residual := extractHashRange(where, tbl)
	pred := vexec.Compile(residual, tbl.Def.Schema, tbl.SegIdx)
	info.kernels = pred.NumKernels()
	info.zoneChecks = pred.HasZoneChecks()
	jobs, err := s.buildSegJobs(tbl, hr)
	if err != nil {
		return info, err
	}
	info.segments = len(jobs)
	checkZones := info.zoneChecks && !s.cluster.cfg.NoZoneMapPruning
	for _, job := range jobs {
		for _, c := range job.store.Containers() {
			info.containers++
			if checkZones && len(c.Stats()) == len(c.Cols) && pred.CanPrune(c.Stats(), c.RowCount) {
				info.pruned++
			}
		}
	}
	return info, nil
}

// explainSchema is the EXPLAIN statement's result-set contract: one row per
// plan step in execution order.
var explainSchema = types.Schema{Cols: []types.Column{
	{Name: "step", T: types.Int64},
	{Name: "operator", T: types.Varchar},
	{Name: "target", T: types.Varchar},
	{Name: "est_rows", T: types.Int64},
	{Name: "containers", T: types.Int64},
	{Name: "pruned", T: types.Int64},
	{Name: "detail", T: types.Varchar},
}}

// executeExplain plans EXPLAIN <select> without executing it: the result set
// describes the chosen join order, build sides, pushdowns, and per-scan
// container pruning from zone maps.
func (s *Session) executeExplain(ex *vsql.Explain) (*Result, error) {
	st := ex.Select
	vis := s.vis().v
	if st.AtEpoch != nil && !st.AtEpoch.Latest {
		if st.AtEpoch.N > s.cluster.txm.LastEpoch() {
			return nil, fmt.Errorf("vertica: epoch %d has not closed yet (last epoch %d)", st.AtEpoch.N, s.cluster.txm.LastEpoch())
		}
		vis.Epoch = st.AtEpoch.N
	}
	if err := s.bindSelectFuncs(st); err != nil {
		return nil, err
	}
	var rows []types.Row
	step := int64(0)
	add := func(op, target string, est, containers, pruned int64, detail string) {
		step++
		rows = append(rows, types.Row{
			types.IntValue(step), types.StringValue(op), types.StringValue(target),
			types.IntValue(est), types.IntValue(containers), types.IntValue(pruned),
			types.StringValue(detail),
		})
	}
	result := func() (*Result, error) {
		return &Result{Schema: explainSchema, Rows: rows, Epoch: vis.Epoch}, nil
	}

	if st.From == nil {
		add("project", "", 1, 0, 0, "FROM-less SELECT")
		return result()
	}

	grouped := hasAggregates(st) || len(st.GroupBy) > 0
	// zoneSkip remembers that some scan had prunable zone checks it will not
	// be allowed to use, so the plan can predict a ZONEMAP_PRUNE_SKIPPED event.
	zoneSkip := false
	scanDetail := func(base scanPlanInfo, pushed string) string {
		d := fmt.Sprintf("%d segments, %d kernels", base.segments, base.kernels)
		if base.zoneChecks {
			if s.cluster.cfg.NoZoneMapPruning {
				zoneSkip = true
				d += ", zone-map pruning disabled"
			} else {
				d += fmt.Sprintf(", zone maps prune %d/%d containers", base.pruned, base.containers)
			}
		}
		if pushed != "" {
			d += ", " + pushed
		}
		return d
	}
	addScan := func(tr *vsql.TableRef, where expr.Expr, pushed string) error {
		est := s.relationEst(tr)
		name := strings.ToLower(tr.Name)
		if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
			add("scan", displayName(tr), est, 0, 0, "system table (row source)")
			return nil
		}
		if _, ok := s.cluster.cat.View(tr.Name); ok {
			add("scan", displayName(tr), est, 0, 0, "view expansion (row source)")
			return nil
		}
		tbl, ok := s.cluster.cat.Table(tr.Name)
		if !ok {
			return fmt.Errorf("vertica: relation %q does not exist", tr.Name)
		}
		info, err := s.explainScan(tbl, where)
		if err != nil {
			return err
		}
		add("scan", displayName(tr), est, info.containers, info.pruned, scanDetail(info, pushed))
		return nil
	}

	if len(st.Joins) == 0 {
		pushed := ""
		if countPushdownEligible(s, st) {
			pushed = "count pushdown"
		}
		if err := addScan(st.From, st.Where, pushed); err != nil {
			return nil, err
		}
		if pushed != "" {
			return result()
		}
	} else {
		plan := s.planJoins(st)
		// Join inputs scan without the WHERE clause (it may reference both
		// sides and applies after the joins), so no zone-map pruning there.
		if err := addScan(st.From, nil, ""); err != nil {
			return nil, err
		}
		estLeft := plan.baseEst
		for _, js := range plan.steps {
			if err := addScan(&js.clause.Right, nil, ""); err != nil {
				return nil, err
			}
			build := "right"
			if js.buildLeft {
				build = "left"
			}
			if js.estRight > estLeft {
				estLeft = js.estRight
			}
			add("join", displayName(&js.clause.Right), estLeft, 0, 0,
				fmt.Sprintf("hash join %s = %s, build %s side", js.clause.LeftCol, js.clause.RightCol, build))
		}
		if st.Where != nil {
			add("filter", "", estLeft, 0, 0, "post-join residual")
		}
	}
	fallback := aggFallbackReason(s, st)
	if grouped {
		detail := "vectorized hash aggregation"
		if fallback != "" {
			detail = "row-at-a-time aggregation"
		}
		add("group-by", "", int64(len(st.GroupBy)), 0, 0, detail)
	}
	if len(st.OrderBy) > 0 {
		add("sort", "", 0, 0, 0, fmt.Sprintf("order by %d keys", len(st.OrderBy)))
	}
	if st.Limit >= 0 {
		add("limit", "", st.Limit, 0, 0, fmt.Sprintf("LIMIT %d", st.Limit))
	}
	// Predicted query events: conditions the plan can already prove will
	// raise a typed event at execution time (see internal/vertica/events.go).
	if fallback != "" {
		add("event", string(obs.EvGroupByFallback), 0, 0, 0, fallback)
	}
	if zoneSkip {
		add("event", string(obs.EvZoneMapPruneSkipped), 0, 0, 0,
			"prunable predicate, but zone-map pruning is disabled by configuration")
	}
	return result()
}
