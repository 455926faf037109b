package vexec

import (
	"math"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// This file implements the vectorized hash join: the build side's key table
// is populated straight from column vectors (a map keyed by raw int64 when
// every build batch stores the key column as an int vector, a typed JoinKey
// map otherwise) and the probe side reads its keys from vectors too — rows
// are boxed into types.Row only for matching pairs, by the caller's emit
// function. Key semantics are the engine's typed join keys: NULL never
// matches, INTEGER matches integral FLOAT, no cross-family collisions.

// JoinKey is a typed, comparable hash-join key. JoinKeyOf keys boxed
// values the same way the column paths key vectors, so a row-at-a-time
// join keyed by it pairs exactly the rows JoinBatches pairs.
type JoinKey struct {
	kind byte // 'i' integral numeric, 'f' non-integral float, 's' string, 'b' bool
	i    int64
	f    float64
	s    string
	b    bool
}

// JoinKeyOf builds the key for a boxed value; ok is false for NULLs (which
// never join).
func JoinKeyOf(v types.Value) (JoinKey, bool) {
	if v.Null {
		return JoinKey{}, false
	}
	switch v.T {
	case types.Int64:
		return JoinKey{kind: 'i', i: v.I}, true
	case types.Float64:
		return floatJoinKey(v.F), true
	case types.Varchar:
		return JoinKey{kind: 's', s: v.S}, true
	case types.Bool:
		return JoinKey{kind: 'b', b: v.B}, true
	default:
		return JoinKey{}, false
	}
}

// floatJoinKey normalizes integral floats to the int form so 1.0 matches
// INTEGER 1, mirroring types.Compare's numeric promotion; magnitudes beyond
// the int64-exact range stay in float form.
func floatJoinKey(f float64) JoinKey {
	if f == math.Trunc(f) && f >= -(1<<62) && f <= 1<<62 {
		return JoinKey{kind: 'i', i: int64(f)}
	}
	return JoinKey{kind: 'f', f: f}
}

// joinKeyAt extracts the key of physical row i from a column vector without
// boxing (typed fast paths; boxed fallback for drifted column types).
func joinKeyAt(col storage.Column, i int) (JoinKey, bool) {
	switch c := col.(type) {
	case *storage.Int64Column:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 'i', i: c.Vals[i]}, true
	case *storage.Int64RLEColumn:
		return JoinKey{kind: 'i', i: c.RunVals[c.RunOf(i)]}, true
	case *storage.Float64Column:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return floatJoinKey(c.Vals[i]), true
	case *storage.StringColumn:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 's', s: c.Vals[i]}, true
	case *storage.BoolColumn:
		if c.Nulls != nil && c.Nulls[i] {
			return JoinKey{}, false
		}
		return JoinKey{kind: 'b', b: c.Vals[i]}, true
	default:
		return JoinKeyOf(col.Get(i))
	}
}

// pairRef locates one row: batch index within a batch set, physical row.
type pairRef struct{ b, r int32 }

// joinTable is the build side: key -> build-row ordinals (dense, in build
// scan order), with refs mapping ordinals back to (batch, row).
type joinTable struct {
	intMap map[int64][]int32 // set when every build batch stores int64 keys
	genMap map[JoinKey][]int32
	refs   []pairRef
}

func buildJoinTable(batches []*storage.Batch, keyCol int) *joinTable {
	t := &joinTable{}
	intKind := true
	total := 0
	for _, b := range batches {
		total += len(b.Sel)
		switch b.Cols[keyCol].(type) {
		case *storage.Int64Column, *storage.Int64RLEColumn:
		default:
			intKind = false
		}
	}
	t.refs = make([]pairRef, 0, total)
	if intKind {
		t.intMap = make(map[int64][]int32, total)
		for bi, b := range batches {
			switch col := b.Cols[keyCol].(type) {
			case *storage.Int64Column:
				for _, i := range b.Sel {
					if col.Nulls != nil && col.Nulls[i] {
						continue
					}
					t.addInt(col.Vals[i], int32(bi), i)
				}
			case *storage.Int64RLEColumn:
				run := 0
				end := int32(-1)
				var v int64
				for _, i := range b.Sel {
					if i >= end {
						for run < len(col.RunEnds) && i >= col.RunEnds[run] {
							run++
						}
						end = col.RunEnds[run]
						v = col.RunVals[run]
					}
					t.addInt(v, int32(bi), i)
				}
			}
		}
		return t
	}
	t.genMap = make(map[JoinKey][]int32, total)
	for bi, b := range batches {
		col := b.Cols[keyCol]
		for _, i := range b.Sel {
			k, ok := joinKeyAt(col, int(i))
			if !ok {
				continue
			}
			ord := int32(len(t.refs))
			t.refs = append(t.refs, pairRef{int32(bi), i})
			t.genMap[k] = append(t.genMap[k], ord)
		}
	}
	return t
}

func (t *joinTable) addInt(v int64, b, r int32) {
	ord := int32(len(t.refs))
	t.refs = append(t.refs, pairRef{b, r})
	t.intMap[v] = append(t.intMap[v], ord)
}

// lookup returns the build ordinals matching key k of the probe column at
// physical row i (nil slice when no match or the probe key is NULL).
func (t *joinTable) lookup(col storage.Column, i int) []int32 {
	if t.intMap != nil {
		// Int build keys: int and integral-float probes can match; strings
		// and bools never do.
		switch c := col.(type) {
		case *storage.Int64Column:
			if c.Nulls != nil && c.Nulls[i] {
				return nil
			}
			return t.intMap[c.Vals[i]]
		case *storage.Int64RLEColumn:
			return t.intMap[c.RunVals[c.RunOf(i)]]
		case *storage.Float64Column:
			if c.Nulls != nil && c.Nulls[i] {
				return nil
			}
			if k := floatJoinKey(c.Vals[i]); k.kind == 'i' {
				return t.intMap[k.i]
			}
			return nil
		default:
			k, ok := joinKeyAt(col, i)
			if !ok || k.kind != 'i' {
				return nil
			}
			return t.intMap[k.i]
		}
	}
	k, ok := joinKeyAt(col, i)
	if !ok {
		return nil
	}
	return t.genMap[k]
}

// JoinBatches hash-joins two batch sets on the given key columns, calling
// emit once per matching (left, right) pair in left-major order: left rows in
// scan order, each paired with its right matches in right scan order — the
// same order whichever side the hash table is built on, so the planner's
// build-side choice never changes result order. buildLeft picks the build
// side (build the smaller relation, probe the larger).
func JoinBatches(left []*storage.Batch, lcol int, right []*storage.Batch, rcol int, buildLeft bool, emit func(lb, lr, rb, rr int32)) {
	if !buildLeft {
		t := buildJoinTable(right, rcol)
		if len(t.refs) == 0 {
			return
		}
		for bi, b := range left {
			col := b.Cols[lcol]
			for _, i := range b.Sel {
				for _, ord := range t.lookup(col, int(i)) {
					ref := t.refs[ord]
					emit(int32(bi), i, ref.b, ref.r)
				}
			}
		}
		return
	}
	// Build on the left: probe right rows into per-left-ordinal buckets, then
	// walk build ordinals (— left scan order —) to emit left-major.
	t := buildJoinTable(left, lcol)
	if len(t.refs) == 0 {
		return
	}
	buckets := make([][]pairRef, len(t.refs))
	matched := false
	for bi, b := range right {
		col := b.Cols[rcol]
		for _, i := range b.Sel {
			for _, ord := range t.lookup(col, int(i)) {
				buckets[ord] = append(buckets[ord], pairRef{int32(bi), i})
				matched = true
			}
		}
	}
	if !matched {
		return
	}
	for ord, ref := range t.refs {
		for _, pr := range buckets[ord] {
			emit(ref.b, ref.r, pr.b, pr.r)
		}
	}
}
