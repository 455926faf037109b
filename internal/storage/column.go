// Package storage implements the engine's columnar storage: typed column
// vectors, Read Optimized Storage (ROS) containers with light-weight column
// encodings, a Write Optimized Storage (WOS) row buffer, and per-container
// delete vectors. This mirrors the Vertica storage organization sketched in
// §2.1.1 of the paper; the details follow the C-Store lineage (plain, RLE,
// delta and dictionary encodings) at the fidelity the connector experiments
// need.
package storage

import (
	"fmt"
	"slices"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// Column is an immutable typed vector of values with a null bitmap.
type Column interface {
	// Type returns the value type stored.
	Type() types.Type
	// Len returns the number of rows.
	Len() int
	// Get returns the value at row i.
	Get(i int) types.Value
	// IsNull reports whether row i is NULL.
	IsNull(i int) bool
}

// Int64Column stores 8-byte integers.
type Int64Column struct {
	Vals  []int64
	Nulls []bool // nil means no nulls
}

// Type implements Column.
func (c *Int64Column) Type() types.Type { return types.Int64 }

// Len implements Column.
func (c *Int64Column) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *Int64Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *Int64Column) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Int64)
	}
	return types.IntValue(c.Vals[i])
}

// Float64Column stores 8-byte floats.
type Float64Column struct {
	Vals  []float64
	Nulls []bool
}

// Type implements Column.
func (c *Float64Column) Type() types.Type { return types.Float64 }

// Len implements Column.
func (c *Float64Column) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *Float64Column) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *Float64Column) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Float64)
	}
	return types.FloatValue(c.Vals[i])
}

// StringColumn stores variable-length strings.
type StringColumn struct {
	Vals  []string
	Nulls []bool
}

// Type implements Column.
func (c *StringColumn) Type() types.Type { return types.Varchar }

// Len implements Column.
func (c *StringColumn) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *StringColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *StringColumn) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Varchar)
	}
	return types.StringValue(c.Vals[i])
}

// BoolColumn stores booleans.
type BoolColumn struct {
	Vals  []bool
	Nulls []bool
}

// Type implements Column.
func (c *BoolColumn) Type() types.Type { return types.Bool }

// Len implements Column.
func (c *BoolColumn) Len() int { return len(c.Vals) }

// IsNull implements Column.
func (c *BoolColumn) IsNull(i int) bool { return c.Nulls != nil && c.Nulls[i] }

// Get implements Column.
func (c *BoolColumn) Get(i int) types.Value {
	if c.IsNull(i) {
		return types.NullValue(types.Bool)
	}
	return types.BoolValue(c.Vals[i])
}

// Int64RLEColumn stores an int64 vector as run-length-encoded (end, value)
// pairs kept in memory, so scans over sorted or low-cardinality columns
// operate directly on the compressed form (C-Store's operate-on-compressed-
// data principle). Run k covers row indexes [RunEnds[k-1], RunEnds[k]).
// RLE columns never contain NULLs: CompressColumn only converts null-free
// vectors.
type Int64RLEColumn struct {
	RunEnds []int32
	RunVals []int64
}

// Type implements Column.
func (c *Int64RLEColumn) Type() types.Type { return types.Int64 }

// Len implements Column.
func (c *Int64RLEColumn) Len() int {
	if len(c.RunEnds) == 0 {
		return 0
	}
	return int(c.RunEnds[len(c.RunEnds)-1])
}

// IsNull implements Column.
func (c *Int64RLEColumn) IsNull(int) bool { return false }

// RunOf returns the run index covering row i.
func (c *Int64RLEColumn) RunOf(i int) int {
	lo, hi := 0, len(c.RunEnds)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if int(c.RunEnds[mid]) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get implements Column.
func (c *Int64RLEColumn) Get(i int) types.Value {
	return types.IntValue(c.RunVals[c.RunOf(i)])
}

// minRLERows is the smallest vector worth compressing; below it the run
// bookkeeping costs more than it saves.
const minRLERows = 64

// CompressColumn converts a dense column to a compressed in-memory form when
// profitable (currently: null-free int64 vectors whose run count is under a
// quarter of the row count, mirroring ChooseEncoding's RLE heuristic).
// Otherwise it returns the column unchanged.
func CompressColumn(c Column) Column {
	col, ok := c.(*Int64Column)
	if !ok || col.Nulls != nil || len(col.Vals) < minRLERows {
		return c
	}
	runs := 1
	for i := 1; i < len(col.Vals); i++ {
		if col.Vals[i] != col.Vals[i-1] {
			runs++
		}
	}
	if runs*4 >= len(col.Vals) {
		return c
	}
	ends := make([]int32, 0, runs)
	vals := make([]int64, 0, runs)
	for i := 1; i < len(col.Vals); i++ {
		if col.Vals[i] != col.Vals[i-1] {
			ends = append(ends, int32(i))
			vals = append(vals, col.Vals[i-1])
		}
	}
	ends = append(ends, int32(len(col.Vals)))
	vals = append(vals, col.Vals[len(col.Vals)-1])
	return &Int64RLEColumn{RunEnds: ends, RunVals: vals}
}

// Densify converts a compressed column back to its dense representation;
// dense columns pass through unchanged. Serialization and other paths that
// type-switch on the dense column set call this first.
func Densify(c Column) Column {
	col, ok := c.(*Int64RLEColumn)
	if !ok {
		return c
	}
	vals := make([]int64, 0, col.Len())
	prev := int32(0)
	for k, end := range col.RunEnds {
		for i := prev; i < end; i++ {
			vals = append(vals, col.RunVals[k])
		}
		prev = end
	}
	return &Int64Column{Vals: vals}
}

// Builder accumulates values of one type and produces an immutable Column.
type Builder struct {
	t        types.Type
	ints     []int64
	floats   []float64
	strs     []string
	bools    []bool
	nulls    []bool
	anyNulls bool
}

// NewBuilder returns a builder for type t.
func NewBuilder(t types.Type) *Builder { return &Builder{t: t} }

// Append adds one value; the value must match the builder's type or be NULL.
func (b *Builder) Append(v types.Value) error {
	if !v.Null && v.T != b.t {
		return fmt.Errorf("storage: appending %v value to %v column", v.T, b.t)
	}
	b.nulls = append(b.nulls, v.Null)
	if v.Null {
		b.anyNulls = true
	}
	switch b.t {
	case types.Int64:
		b.ints = append(b.ints, v.I)
	case types.Float64:
		b.floats = append(b.floats, v.F)
	case types.Varchar:
		b.strs = append(b.strs, v.S)
	case types.Bool:
		b.bools = append(b.bools, v.B)
	default:
		return fmt.Errorf("storage: unsupported column type %v", b.t)
	}
	return nil
}

// AppendNull adds a NULL (a zero value under a set null bit).
func (b *Builder) AppendNull() {
	switch b.t {
	case types.Int64:
		b.ints = append(b.ints, 0)
	case types.Float64:
		b.floats = append(b.floats, 0)
	case types.Varchar:
		b.strs = append(b.strs, "")
	case types.Bool:
		b.bools = append(b.bools, false)
	}
	b.nulls = append(b.nulls, true)
	b.anyNulls = true
}

// AppendInt adds a non-NULL value to an INTEGER builder. The typed appends
// let decoders fill columns without boxing each value; the caller
// guarantees the builder's type.
func (b *Builder) AppendInt(v int64) {
	b.ints = append(b.ints, v)
	b.nulls = append(b.nulls, false)
}

// AppendFloat adds a non-NULL value to a FLOAT builder.
func (b *Builder) AppendFloat(v float64) {
	b.floats = append(b.floats, v)
	b.nulls = append(b.nulls, false)
}

// AppendString adds a non-NULL value to a VARCHAR builder.
func (b *Builder) AppendString(v string) {
	b.strs = append(b.strs, v)
	b.nulls = append(b.nulls, false)
}

// AppendBool adds a non-NULL value to a BOOLEAN builder.
func (b *Builder) AppendBool(v bool) {
	b.bools = append(b.bools, v)
	b.nulls = append(b.nulls, false)
}

// AppendSelected appends the rows of c at the indexes in sel, in order,
// copying typed values without boxing them. c must hold the builder's type.
func (b *Builder) AppendSelected(c Column, sel []int32) error {
	if c.Type() != b.t {
		return fmt.Errorf("storage: appending %v column to %v builder", c.Type(), b.t)
	}
	switch col := c.(type) {
	case *Int64Column:
		b.ints = slices.Grow(b.ints, len(sel))
		for _, i := range sel {
			b.ints = append(b.ints, col.Vals[i])
		}
		b.appendNulls(col.Nulls, sel)
	case *Float64Column:
		b.floats = slices.Grow(b.floats, len(sel))
		for _, i := range sel {
			b.floats = append(b.floats, col.Vals[i])
		}
		b.appendNulls(col.Nulls, sel)
	case *StringColumn:
		b.strs = slices.Grow(b.strs, len(sel))
		for _, i := range sel {
			b.strs = append(b.strs, col.Vals[i])
		}
		b.appendNulls(col.Nulls, sel)
	case *BoolColumn:
		b.bools = slices.Grow(b.bools, len(sel))
		for _, i := range sel {
			b.bools = append(b.bools, col.Vals[i])
		}
		b.appendNulls(col.Nulls, sel)
	case *Int64RLEColumn:
		// Selections are ascending, so the covering run only moves forward;
		// RunOf re-seeks if an index ever goes backwards.
		b.ints = slices.Grow(b.ints, len(sel))
		run := 0
		for _, i := range sel {
			if run > 0 && int(col.RunEnds[run-1]) > int(i) {
				run = col.RunOf(int(i))
			}
			for int(col.RunEnds[run]) <= int(i) {
				run++
			}
			b.ints = append(b.ints, col.RunVals[run])
		}
		b.appendNulls(nil, sel)
	default:
		for _, i := range sel {
			if err := b.Append(c.Get(int(i))); err != nil {
				return err
			}
		}
	}
	return nil
}

// appendNulls extends the null bitmap for the rows AppendSelected copied.
func (b *Builder) appendNulls(nulls []bool, sel []int32) {
	b.nulls = slices.Grow(b.nulls, len(sel))
	if nulls == nil {
		b.nulls = append(b.nulls, make([]bool, len(sel))...)
		return
	}
	for _, i := range sel {
		b.nulls = append(b.nulls, nulls[i])
		if nulls[i] {
			b.anyNulls = true
		}
	}
}

// Reset empties the builder for reuse, keeping its buffers. The column the
// previous Build returned shares those buffers, so it must no longer be in
// use.
func (b *Builder) Reset() {
	b.ints, b.floats, b.strs, b.bools = b.ints[:0], b.floats[:0], b.strs[:0], b.bools[:0]
	b.nulls, b.anyNulls = b.nulls[:0], false
}

// Len returns the number of values appended so far.
func (b *Builder) Len() int { return len(b.nulls) }

// Build returns the immutable column. The builder must not be appended to
// again until Reset.
func (b *Builder) Build() Column {
	var nulls []bool
	if b.anyNulls {
		nulls = b.nulls
	}
	switch b.t {
	case types.Int64:
		return &Int64Column{Vals: b.ints, Nulls: nulls}
	case types.Float64:
		return &Float64Column{Vals: b.floats, Nulls: nulls}
	case types.Varchar:
		return &StringColumn{Vals: b.strs, Nulls: nulls}
	case types.Bool:
		return &BoolColumn{Vals: b.bools, Nulls: nulls}
	default:
		panic(fmt.Sprintf("storage: unsupported column type %v", b.t))
	}
}

// NewBuilders returns one builder per schema column, of its type.
func NewBuilders(schema types.Schema) []*Builder {
	out := make([]*Builder, schema.NumCols())
	for i, c := range schema.Cols {
		out[i] = NewBuilder(c.T)
	}
	return out
}

// BuildAll builds every builder's column, in order.
func BuildAll(builders []*Builder) []Column {
	cols := make([]Column, len(builders))
	for i, b := range builders {
		cols[i] = b.Build()
	}
	return cols
}

// ColumnsFromRows builds one column per schema column from a row slice.
func ColumnsFromRows(rows []types.Row, schema types.Schema) ([]Column, error) {
	builders := NewBuilders(schema)
	for _, r := range rows {
		if len(r) != schema.NumCols() {
			return nil, fmt.Errorf("storage: row width %d != schema width %d", len(r), schema.NumCols())
		}
		for i, v := range r {
			if err := builders[i].Append(v); err != nil {
				return nil, err
			}
		}
	}
	return BuildAll(builders), nil
}

// HashColumns returns vhash.HashRow of each of the first n rows held in cols
// over the column indexes segIdx (empty = the whole row), computed a column
// at a time from the typed vectors without boxing a value.
func HashColumns(cols []Column, segIdx []int, n int) []uint32 {
	if n == 0 {
		return nil
	}
	state := make([]uint64, n)
	for i := range state {
		state[i] = vhash.Offset
	}
	mix := func(c Column) {
		switch col := c.(type) {
		case *Int64Column:
			mixVector(state, col.Vals, col.Nulls, vhash.MixInt)
		case *Float64Column:
			mixVector(state, col.Vals, col.Nulls, vhash.MixFloat)
		case *StringColumn:
			mixVector(state, col.Vals, col.Nulls, vhash.MixString)
		case *BoolColumn:
			mixVector(state, col.Vals, col.Nulls, vhash.MixBool)
		default:
			for i := range state {
				state[i] = vhash.MixValue(state[i], c.Get(i))
			}
		}
	}
	if len(segIdx) == 0 {
		for _, c := range cols {
			mix(c)
		}
	} else {
		for _, ci := range segIdx {
			mix(cols[ci])
		}
	}
	out := make([]uint32, n)
	for i, h := range state {
		out[i] = vhash.Fold(h)
	}
	return out
}

// mixVector mixes vals[i] (or a NULL) into state[i] for every row.
func mixVector[T any](state []uint64, vals []T, nulls []bool, mixVal func(uint64, T) uint64) {
	for i := range state {
		if nulls != nil && nulls[i] {
			state[i] = vhash.MixNull(state[i])
		} else {
			state[i] = mixVal(state[i], vals[i])
		}
	}
}
