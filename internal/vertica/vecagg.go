package vertica

import (
	"fmt"
	"time"

	"vsfabric/internal/expr"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vexec"
	"vsfabric/internal/vsql"
)

// This file pushes GROUP BY / aggregate queries over a single base table
// down into the vectorized pipeline: segment batches are filtered in
// parallel by the compiled predicate kernels (with zone-map container
// pruning), then consumed by one typed hash-aggregation table
// (vexec.HashAgg) sequentially in segment order — the same row order the
// row-at-a-time reference sees, so group discovery order and float
// accumulation order match it exactly.

// aggOpOf maps a SQL aggregate function to its kernel op.
func aggOpOf(fn vsql.AggFn) (vexec.AggOp, bool) {
	switch fn {
	case vsql.AggCount:
		return vexec.AggCount, true
	case vsql.AggSum:
		return vexec.AggSum, true
	case vsql.AggAvg:
		return vexec.AggAvg, true
	case vsql.AggMin:
		return vexec.AggMin, true
	case vsql.AggMax:
		return vexec.AggMax, true
	default:
		return 0, false
	}
}

// vectorAggEligible reports whether a SELECT's aggregation can run on the
// vectorized hash-aggregation kernels: a single base table (no joins, views,
// or system tables) with every aggregate argument a plain column. Anything
// else falls back to the row-at-a-time aggregate().
func vectorAggEligible(s *Session, st *vsql.Select) bool {
	if st.From == nil || len(st.Joins) > 0 {
		return false
	}
	if !hasAggregates(st) && len(st.GroupBy) == 0 {
		return false
	}
	if !baseTableOnly(s, st.From) {
		return false
	}
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return false
	}
	plans, _, _, err := buildAggPlan(st, tbl.Def.Schema)
	if err != nil {
		return false
	}
	for _, pl := range plans {
		if pl.groupCol >= 0 {
			continue
		}
		if _, ok := aggOpOf(pl.agg); !ok {
			return false
		}
		if pl.arg == nil {
			continue // COUNT(*)
		}
		col, isCol := pl.arg.(*expr.Col)
		if !isCol || tbl.Def.Schema.ColIndex(col.Name) < 0 {
			return false
		}
	}
	return true
}

// aggFallbackReason says why a grouped SELECT runs on the row-at-a-time
// aggregate() instead of the vectorized kernels, or "" when it does not (no
// aggregation, or vectorAggEligible). Execution raises it as the
// GROUP_BY_FALLBACK_ROW_PATH event's detail and EXPLAIN predicts it.
func aggFallbackReason(s *Session, st *vsql.Select) string {
	switch {
	case !hasAggregates(st) && len(st.GroupBy) == 0, vectorAggEligible(s, st):
		return ""
	case len(st.Joins) > 0:
		return "aggregate over a join runs row-at-a-time"
	case st.From != nil && !baseTableOnly(s, st.From):
		return "aggregate over a non-base relation runs row-at-a-time"
	default:
		return "aggregation shape not eligible for vectorized kernels"
	}
}

// tryVectorizedAgg answers an eligible GROUP BY / aggregate SELECT from the
// typed hash-aggregation kernels without materializing input rows. ok=false
// falls through to the general scan + aggregate() path (which reports any
// errors, so ineligibility is silent here).
func (s *Session) tryVectorizedAgg(st *vsql.Select, vis storage.Visibility, stats *scanStats, qp *queryProfile) (*Result, bool, error) {
	if !vectorAggEligible(s, st) {
		return nil, false, nil
	}
	// COUNT(*)-only queries already took the popcount pushdown upstream.
	tbl, ok := s.cluster.cat.Table(st.From.Name)
	if !ok {
		return nil, false, nil
	}
	schema := tbl.Def.Schema
	plans, groupIdx, outSchema, err := buildAggPlan(st, schema)
	if err != nil {
		return nil, false, nil
	}
	spec := vexec.AggSpec{GroupCols: groupIdx}
	aggIdx := make([]int, len(plans)) // plan item → index into spec.Aggs
	for i, pl := range plans {
		if pl.groupCol >= 0 {
			aggIdx[i] = -1
			continue
		}
		op, _ := aggOpOf(pl.agg)
		col := -1
		if pl.arg != nil {
			col = schema.ColIndex(pl.arg.(*expr.Col).Name)
		}
		aggIdx[i] = len(spec.Aggs)
		spec.Aggs = append(spec.Aggs, vexec.AggExpr{Op: op, Col: col})
	}

	stats.table = tbl.Def.Name
	stats.pushdown = "group-by"
	stats.vectorized = true
	scanStart := profClock(qp)
	profile := qp != nil
	hr, residual := extractHashRange(st.Where, tbl)
	pred := vexec.Compile(residual, schema, tbl.SegIdx)
	jobs, err := s.buildSegJobs(tbl, hr)
	if err != nil {
		return nil, false, err
	}

	// Parallel phase: build and filter every segment's batches. The batches
	// reference the containers' immutable column vectors, so holding them
	// until the sequential consume phase is free.
	type segBatches struct {
		segResult
		batches []*storage.Batch
	}
	results := make([]segBatches, len(jobs))
	runSegJobs(len(jobs), func(i int) {
		res := &results[i]
		res.scanRows = float64(jobs[i].store.TotalRows())
		var fs *vexec.FilterStats
		if profile {
			fs = &res.fstats
		}
		err := jobs[i].store.ScanBatchesPruned(vis, hr, s.pruneFunc(pred, &res.segResult), func(b *storage.Batch) bool {
			if err := pred.FilterBatchStats(b, fs); err != nil {
				res.err = err
				return false
			}
			if len(b.Sel) > 0 {
				res.batches = append(res.batches, b)
			}
			return true
		})
		if err != nil && res.err == nil {
			res.err = err
		}
	})

	// Sequential phase: one hash table consumes every batch in segment order.
	ha := vexec.NewHashAgg(spec, schema)
	var fstats vexec.FilterStats
	var scanned, contSeen, contNoStats int64
	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, false, res.err
		}
		stats.scanRows[sim.VName(jobs[i].homeNode)] += res.scanRows
		scanned += int64(res.scanRows)
		fstats.KernelRows += res.fstats.KernelRows
		fstats.ResidualRows += res.fstats.ResidualRows
		stats.contScanned += res.contSeen - res.contPruned
		stats.contPruned += res.contPruned
		stats.contNoStats += res.contNoStats
		contSeen += res.contSeen
		contNoStats += res.contNoStats
		for _, b := range res.batches {
			ha.Consume(b)
		}
	}
	s.raiseZoneMapSkipped(tbl.Def.Name, pred.HasZoneChecks(), contNoStats, contSeen)

	out := make([]types.Row, 0, ha.NumGroups())
	for g := 0; g < ha.NumGroups(); g++ {
		key := ha.GroupKey(g)
		row := make(types.Row, len(plans))
		for i, pl := range plans {
			if pl.groupCol >= 0 {
				row[i] = key[pl.groupCol]
			} else {
				row[i] = ha.AggResult(g, aggIdx[i])
			}
		}
		out = append(out, row)
	}
	if len(st.OrderBy) > 0 {
		if err := orderRows(out, outSchema, st.OrderBy); err != nil {
			return nil, false, err
		}
	}
	if st.Limit >= 0 && int64(len(out)) > st.Limit {
		out = out[:st.Limit]
	}
	if qp != nil {
		detail := fmt.Sprintf("%d segments, %d kernels", len(jobs), pred.NumKernels())
		if stats.contPruned > 0 {
			detail += fmt.Sprintf(", zone maps pruned %d/%d containers", stats.contPruned, stats.contPruned+stats.contScanned)
		}
		qp.add(opStat{
			name: "scan " + tbl.Def.Name, rowsIn: scanned, rowsOut: ha.Rows(),
			vecRows: fstats.KernelRows, resRows: fstats.ResidualRows,
			dur: time.Since(scanStart), detail: detail,
		})
		grpStart := time.Now()
		qp.add(opStat{
			name: "group-by", rowsIn: ha.Rows(), rowsOut: int64(ha.NumGroups()),
			vecRows: ha.Rows() - ha.FallbackRows(), resRows: ha.FallbackRows(),
			dur:    grpStart.Sub(scanStart),
			detail: fmt.Sprintf("vectorized hash aggregation (%s keys), %d groups", ha.FastPath(), ha.NumGroups()),
		})
	}
	return &Result{Schema: outSchema, Rows: out}, true, nil
}
