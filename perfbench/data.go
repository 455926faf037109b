package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"vsfabric/internal/types"
)

// schema is the table and DataFrame schema every workload moves.
var schema = types.NewSchema(
	types.Column{Name: "id", T: types.Int64},
	types.Column{Name: "grp", T: types.Int64},
	types.Column{Name: "val", T: types.Float64},
	types.Column{Name: "tag", T: types.Varchar},
)

// tableDDL renders the CREATE TABLE statement for a segmented table of
// schema.
func tableDDL(name string) string {
	return "CREATE TABLE " + name + " (id INTEGER, grp INTEGER, val FLOAT, tag VARCHAR) SEGMENTED BY HASH(id) ALL NODES"
}

// mix64 is the splitmix64 finalizer: a bijection on uint64, so two distinct
// inputs never mix to the same value.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// rowGen derives every value of a row from the workload seed and the row's
// id, so any row (or any id range) can be regenerated for checking without
// keeping the data.
type rowGen struct{ seed uint64 }

const tagAlphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

// row returns the generated row with the given id. val is a multiple of
// 0.25 below 2^18, so sums of up to millions of values are exact in float64
// whatever order they are added in.
func (g rowGen) row(id int64) types.Row {
	h := mix64(g.seed ^ mix64(uint64(id)))
	h2 := mix64(h)
	var tag [24]byte
	n := 6 + int(h2%11)
	for i := 0; i < n; i++ {
		tag[i] = tagAlphabet[h2%uint64(len(tagAlphabet))]
		h2 = h2/uint64(len(tagAlphabet)) ^ mix64(h2+uint64(i))
	}
	return types.Row{
		types.IntValue(id),
		types.IntValue(int64(h % 1000)),
		types.FloatValue(float64((h>>10)%(1<<20)) / 4),
		types.StringValue(string(tag[:n])),
	}
}

// rows generates the rows with ids [lo, hi).
func (g rowGen) rows(lo, hi int64) []types.Row {
	out := make([]types.Row, 0, hi-lo)
	for id := lo; id < hi; id++ {
		out = append(out, g.row(id))
	}
	return out
}

// appendCSV appends the rows with ids [lo, hi) as COPY CSV lines, folding
// each into sum.
func (g rowGen) appendCSV(buf []byte, lo, hi int64, sum *checksum) []byte {
	for id := lo; id < hi; id++ {
		r := g.row(id)
		sum.add(r, schemaOrder)
		buf = strconv.AppendInt(buf, r[0].I, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, r[1].I, 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, r[2].F, 'g', -1, 64)
		buf = append(buf, ',')
		buf = append(buf, r[3].S...)
		buf = append(buf, '\n')
	}
	return buf
}

// checksum is an order-independent digest of a row set: the row count and,
// per column, the wrapping sum of each value mixed through mix64. Because
// mix64 is a bijection, altering any single value changes its column's sum,
// and dropping or duplicating a row changes the count.
type checksum struct {
	Rows              int64
	ID, Grp, Val, Tag uint64
}

// fnv64 hashes a string (FNV-1a).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// columnIndex maps the id, grp, val and tag columns of s to positions,
// failing when one is missing.
func columnIndex(s types.Schema) ([4]int, error) {
	var idx [4]int
	for i, c := range schema.Cols {
		j := s.ColIndex(c.Name)
		if j < 0 {
			return idx, fmt.Errorf("result has no column %q (schema %s)", c.Name, s)
		}
		idx[i] = j
	}
	return idx, nil
}

// add folds one row, laid out as idx describes, into the checksum.
func (c *checksum) add(r types.Row, idx [4]int) {
	c.Rows++
	c.ID += mix64(uint64(r[idx[0]].I))
	c.Grp += mix64(uint64(r[idx[1]].I))
	c.Val += mix64(floatBits(r[idx[2]]))
	c.Tag += mix64(fnv64(r[idx[3]].S))
}

// floatBits returns the bits of a FLOAT value, with -0 folded into +0 so
// that values comparing equal digest alike.
func floatBits(v types.Value) uint64 {
	if v.F == 0 {
		return 0
	}
	return math.Float64bits(v.F)
}

// sameValue is strict equality: same type, same nullness, same value.
func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && floatBits(a) == floatBits(b)
}

// schemaOrder is the column layout of generated rows.
var schemaOrder = [4]int{0, 1, 2, 3}

// checksumOf digests rows laid out as idx describes.
func checksumOf(rows []types.Row, idx [4]int) checksum {
	var c checksum
	for _, r := range rows {
		c.add(r, idx)
	}
	return c
}

// checkRows compares the digest of rows with schema s against want.
func checkRows(rows []types.Row, s types.Schema, want checksum) error {
	idx, err := columnIndex(s)
	if err != nil {
		return err
	}
	if d := checksumOf(rows, idx).diff(want); d != "" {
		return fmt.Errorf("%s", d)
	}
	return nil
}

// diff describes how got departs from want ("" when equal).
func (c checksum) diff(want checksum) string {
	if c == want {
		return ""
	}
	return fmt.Sprintf("checksum mismatch: got %d rows %016x/%016x/%016x/%016x, want %d rows %016x/%016x/%016x/%016x",
		c.Rows, c.ID, c.Grp, c.Val, c.Tag, want.Rows, want.ID, want.Grp, want.Val, want.Tag)
}

// exactRows checks that got holds exactly the generated rows with ids
// [lo, hi), each once, whatever their order.
func (g rowGen) exactRows(got []types.Row, s types.Schema, lo, hi int64) error {
	idx, err := columnIndex(s)
	if err != nil {
		return err
	}
	if int64(len(got)) != hi-lo {
		return fmt.Errorf("got %d rows for ids [%d,%d), want %d", len(got), lo, hi, hi-lo)
	}
	sorted := make([]types.Row, len(got))
	copy(sorted, got)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i][idx[0]].I < sorted[j][idx[0]].I })
	for i, r := range sorted {
		want := g.row(lo + int64(i))
		for c := range idx {
			if !sameValue(r[idx[c]], want[c]) {
				return fmt.Errorf("row %d: column %s = %v, want %v (row %v)", lo+int64(i), schema.Cols[c].Name, r[idx[c]], want[c], r)
			}
		}
	}
	return nil
}
