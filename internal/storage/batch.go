package storage

import (
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// Batch is one unit of vectorized scan output: the immutable column vectors
// of a single ROS container (or a WOS snapshot) plus a selection vector of
// the row indexes that survived MVCC visibility and the hash-range mask.
// Predicate kernels narrow Sel in place; only the rows left in Sel at the
// end of the pipeline are ever materialized into types.Row form (late
// materialization, the MonetDB/X100 execution model).
type Batch struct {
	Schema types.Schema
	Cols   []Column
	// Hashes holds the per-row segmentation hash, aligned with the columns.
	// Kernels over HASH(segcols) predicates evaluate against it directly.
	Hashes []uint32
	// Sel lists surviving row indexes in ascending order.
	Sel []int32
}

// Len returns the number of selected rows.
func (b *Batch) Len() int { return len(b.Sel) }

// Row materializes physical row i (not a selection index) across all
// columns. Used by residual-predicate evaluation.
func (b *Batch) Row(i int, dst types.Row) types.Row {
	if cap(dst) < len(b.Cols) {
		dst = make(types.Row, len(b.Cols))
	}
	dst = dst[:len(b.Cols)]
	for j, col := range b.Cols {
		dst[j] = col.Get(i)
	}
	return dst
}

// Materialize builds one types.Row per selected row, restricted to the
// given column indexes (nil = all columns, in schema order). It boxes only
// rows that survived every kernel, and only for the operators that need
// rows; a single-table SELECT streamed over the wire never calls it.
func (b *Batch) Materialize(colIdx []int) []types.Row {
	if len(b.Sel) == 0 {
		return nil
	}
	width := len(colIdx)
	if colIdx == nil {
		width = len(b.Cols)
	}
	out := make([]types.Row, len(b.Sel))
	// Flat backing array: one allocation for all rows' values.
	backing := make([]types.Value, len(b.Sel)*width)
	for k, i := range b.Sel {
		row := backing[k*width : (k+1)*width : (k+1)*width]
		if colIdx == nil {
			for j, col := range b.Cols {
				row[j] = col.Get(int(i))
			}
		} else {
			for j, ci := range colIdx {
				row[j] = b.Cols[ci].Get(int(i))
			}
		}
		out[k] = row
	}
	return out
}

// coversRing reports whether hr covers the whole hash ring (no mask needed).
func coversRing(hr vhash.Range) bool { return hr.Lo == 0 && hr.Hi == vhash.RingSize }

// batchFromContainer builds the container's batch: the selection vector is
// computed in one pass under a single RLock — the delete vector and the
// hash-range mask are applied together, instead of the row-at-a-time path's
// per-row lock acquisition.
func batchFromContainer(c *ROSContainer, schema types.Schema, vis Visibility, hr vhash.Range) *Batch {
	c.mu.RLock()
	if !vis.seesInsert(c.start) {
		c.mu.RUnlock()
		return nil
	}
	sel := make([]int32, 0, c.RowCount)
	full := coversRing(hr)
	if c.del == nil {
		// No deletes recorded: the selection is purely the hash mask and can
		// be built without consulting MVCC per row.
		c.mu.RUnlock()
		if full {
			for i := 0; i < c.RowCount; i++ {
				sel = append(sel, int32(i))
			}
		} else {
			for i, h := range c.Hashes {
				if hr.Contains(h) {
					sel = append(sel, int32(i))
				}
			}
		}
	} else {
		del := c.del
		for i := 0; i < c.RowCount; i++ {
			if !full && !hr.Contains(c.Hashes[i]) {
				continue
			}
			if vis.seesDelete(del[i]) {
				continue
			}
			sel = append(sel, int32(i))
		}
		c.mu.RUnlock()
	}
	return &Batch{Schema: schema, Cols: c.Cols, Hashes: c.Hashes, Sel: sel}
}

// ScanBatches calls fn once per ROS container (and once for the WOS
// snapshot, if non-empty) with MVCC visibility and the hash-range mask
// already applied in the selection vector. Returning false from fn stops the
// scan. Batches share the containers' immutable column vectors; callers must
// not mutate them.
func (s *Store) ScanBatches(vis Visibility, hr vhash.Range, fn func(*Batch) bool) error {
	return s.ScanBatchesPruned(vis, hr, nil, fn)
}

// ScanBatchesPruned is ScanBatches with a container-level prune hook: before a
// ROS container's selection vector is built, prune is consulted with its zone
// maps and physical row count, and a true return skips the container entirely
// (the caller has proven, from the min/max bounds, that no row can satisfy its
// predicate). A container missing its zone maps is consulted with nil stats so
// the caller can account for the lost pruning opportunity, but it is never
// pruned (its verdict is ignored). The WOS snapshot keeps no zone maps
// and is never pruned. A nil prune scans everything.
func (s *Store) ScanBatchesPruned(vis Visibility, hr vhash.Range, prune func(stats []ColStats, rowCount int) bool, fn func(*Batch) bool) error {
	for _, c := range s.snapshot() {
		if prune != nil {
			if len(c.stats) == len(c.Cols) {
				if prune(c.stats, c.RowCount) {
					continue
				}
			} else {
				prune(nil, c.RowCount)
			}
		}
		b := batchFromContainer(c, s.schema, vis, hr)
		if b == nil {
			continue
		}
		if !fn(b) {
			return nil
		}
	}
	rows, hashes := s.wos.VisibleRows(vis, hr)
	if len(rows) == 0 {
		return nil
	}
	cols, err := ColumnsFromRows(rows, s.schema)
	if err != nil {
		return err
	}
	sel := make([]int32, len(rows))
	for i := range sel {
		sel[i] = int32(i)
	}
	fn(&Batch{Schema: s.schema, Cols: cols, Hashes: hashes, Sel: sel})
	return nil
}

// CountVisible returns the number of rows visible under vis inside hr using
// selection-vector popcounts — no row materialization.
func (s *Store) CountVisible(vis Visibility, hr vhash.Range) int {
	n := 0
	_ = s.ScanBatches(vis, hr, func(b *Batch) bool {
		n += len(b.Sel)
		return true
	})
	return n
}

// VisibleRows snapshots the WOS rows visible under vis inside hr, returning
// the rows and their segmentation hashes. Row slices are shared with the
// buffer (WOS rows are immutable once appended); callers must not mutate
// them.
func (w *WOS) VisibleRows(vis Visibility, hr vhash.Range) ([]types.Row, []uint32) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var rows []types.Row
	var hashes []uint32
	for i, r := range w.rows {
		if !vis.RowVisible(w.starts[i], w.dels[i]) || !hr.Contains(w.hashes[i]) {
			continue
		}
		rows = append(rows, r)
		hashes = append(hashes, w.hashes[i])
	}
	return rows, hashes
}
