package vertica

import (
	"fmt"
	"strings"
	"testing"

	"vsfabric/internal/catalog"
	"vsfabric/internal/expr"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file is the engine's row-at-a-time reference: a boxed-row scan, a
// boxed-row hash join, and refSelect, which answers a SELECT with them
// alone (row scan → row join in planner order → residual WHERE → project).
// The equivalence suites diff the production batch pipeline against it, and
// the *RowAtATime benchmarks time it.

// refSelect runs a SELECT on the reference path under the session's
// read-committed snapshot.
func refSelect(s *Session, sql string) (*Result, error) {
	stmt, err := vsql.Parse(sql)
	if err != nil {
		return nil, err
	}
	st, ok := stmt.(*vsql.Select)
	if !ok {
		return nil, fmt.Errorf("refSelect: %q is not a SELECT", sql)
	}
	if err := s.bindSelectFuncs(st); err != nil {
		return nil, err
	}
	rows, schema, err := refProject(s, st, s.vis().v)
	if err != nil {
		return nil, err
	}
	return &Result{Schema: schema, Rows: rows}, nil
}

// mustRefSelect is refSelect for tests, failing t on error.
func mustRefSelect(t testing.TB, s *Session, sql string) *Result {
	t.Helper()
	res, err := refSelect(s, sql)
	if err != nil {
		t.Fatalf("refSelect %s: %v", sql, err)
	}
	return res
}

// refProject produces a SELECT's projected rows on the reference path.
func refProject(s *Session, st *vsql.Select, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	rows, schema, err := refSource(s, st, vis)
	if err != nil {
		return nil, types.Schema{}, err
	}
	return project(st, rows, schema, nil)
}

// refSource produces a SELECT's filtered input rows: one relation scanned
// with the WHERE clause, or the planner-ordered row joins followed by the
// WHERE clause as a residual.
func refSource(s *Session, st *vsql.Select, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	if st.From == nil {
		return []types.Row{{}}, types.Schema{}, nil
	}
	if len(st.Joins) == 0 {
		return refRelation(s, st.From, st.Where, vis)
	}
	rows, schema, err := refRelation(s, st.From, nil, vis)
	if err != nil {
		return nil, types.Schema{}, err
	}
	lref := st.From
	for _, step := range s.planJoins(st).steps {
		right, rs, err := refRelation(s, &step.clause.Right, nil, vis)
		if err != nil {
			return nil, types.Schema{}, err
		}
		li, ri, out, err := joinSchema(schema, lref, rs, step.clause)
		if err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, lref = rowHashJoin(rows, li, right, ri), out, nil
	}
	return filterRows(rows, schema, st.Where, -1)
}

// refRelation scans one relation row by row, filtered by where: a system
// table's rows, a view's SELECT run on the reference path, or a base table's
// row-at-a-time scan.
func refRelation(s *Session, tr *vsql.TableRef, where expr.Expr, vis storage.Visibility) ([]types.Row, types.Schema, error) {
	name := strings.ToLower(tr.Name)
	if strings.HasPrefix(name, "v_catalog.") || strings.HasPrefix(name, "v_monitor.") {
		rows, schema, err := s.systemTable(name, vis)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return filterRows(rows, schema, where, -1)
	}
	if view, ok := s.cluster.cat.View(tr.Name); ok {
		sub, err := vsql.Parse(view.SelectSQL)
		if err != nil {
			return nil, types.Schema{}, err
		}
		subSel := sub.(*vsql.Select)
		if err := s.bindSelectFuncs(subSel); err != nil {
			return nil, types.Schema{}, err
		}
		rows, schema, err := refProject(s, subSel, vis)
		if err != nil {
			return nil, types.Schema{}, err
		}
		return filterRows(rows, schema, where, -1)
	}
	tbl, ok := s.cluster.cat.Table(tr.Name)
	if !ok {
		return nil, types.Schema{}, fmt.Errorf("vertica: relation %q does not exist", tr.Name)
	}
	return s.scanTableRowAtATime(tbl, where, vis, newScanStats())
}

// rowHashJoin is the boxed-row reference join: build the hash table on the
// right input, probe the left in order, so pairs come out left-major with
// each left row's matches in right input order. Keys are vexec.JoinKeyOf's:
// NULL never joins, INTEGER joins integral FLOAT, no cross-family matches.
func rowHashJoin(left []types.Row, li int, right []types.Row, ri int) []types.Row {
	ht := make(map[vexec.JoinKey][]types.Row, len(right))
	for _, r := range right {
		if k, ok := vexec.JoinKeyOf(r[ri]); ok {
			ht[k] = append(ht[k], r)
		}
	}
	var rows []types.Row
	for _, l := range left {
		k, ok := vexec.JoinKeyOf(l[li])
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

// scanTableRowAtATime is the row-at-a-time reference scan: one boxed
// types.Value per cell, one delete-vector RLock per row, one interpreted
// predicate evaluation per row, segments visited in order. scanTable must
// return exactly its rows, in its order.
func (s *Session) scanTableRowAtATime(tbl *catalog.Table, where expr.Expr, vis storage.Visibility, stats *scanStats) ([]types.Row, types.Schema, error) {
	schema := tbl.Def.Schema
	hr, residual := extractHashRange(where, tbl)
	var out []types.Row

	appendMatches := func(store *storage.Store, homeNode int) error {
		var scanErr error
		stats.scanRows[sim.VName(homeNode)] += float64(store.TotalRows())
		store.Scan(vis, hr, func(r types.Row) bool {
			ok, err := expr.EvalPredicate(residual, r, &schema)
			if err != nil {
				scanErr = err
				return false
			}
			if ok {
				out = append(out, r.Clone())
			}
			return true
		})
		return scanErr
	}

	if !tbl.Def.Segmented {
		store, homeNode, err := s.replicaFor(tbl, s.localPos(tbl))
		if err != nil {
			return nil, types.Schema{}, err
		}
		err = appendMatches(store, homeNode)
		return out, schema, err
	}
	segs := tbl.SegmentRanges()
	for i := range tbl.Stores {
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
