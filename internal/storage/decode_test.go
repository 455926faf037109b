package storage

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"

	"vsfabric/internal/types"
)

// TestDecodeColumnsRejectsHugeLengthPrefix is the regression for a corrupt
// result frame that used to panic the decoding process with "makeslice: len
// out of range": one column whose name length claims 2^62 bytes.
func TestDecodeColumnsRejectsHugeLengthPrefix(t *testing.T) {
	payload := []byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, _, _, err := DecodeColumns(payload); err == nil {
		t.Fatal("DecodeColumns accepted a name length beyond the payload")
	}
}

// TestDecodeRejectsOversizedCounts covers the other unchecked allocations:
// a column chunk size beyond the payload, a column whose own row count
// disagrees with the header's, a header row count no column can back, and a
// column count larger than the payload could describe.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	schema := types.Schema{Cols: []types.Column{{Name: "a", T: types.Int64}}}
	var hdr bytes.Buffer
	writeSchema(&hdr, schema)

	huge := uint64(1) << 62
	cases := map[string][]byte{}

	// Chunk size prefix far beyond the bytes left.
	var b bytes.Buffer
	b.Write(hdr.Bytes())
	writeUvarint(&b, 1)    // nrows
	writeUvarint(&b, huge) // chunk size
	cases["chunk size"] = append([]byte(nil), b.Bytes()...)

	// Column row count (huge) disagreeing with the header (1 row).
	var chunk bytes.Buffer
	chunk.WriteByte(byte(types.Int64))
	chunk.WriteByte(byte(EncPlain))
	writeUvarint(&chunk, huge)
	chunk.WriteByte(0)
	b.Reset()
	b.Write(hdr.Bytes())
	writeUvarint(&b, 1)
	writeUvarint(&b, uint64(chunk.Len()))
	b.Write(chunk.Bytes())
	cases["column row count"] = append([]byte(nil), b.Bytes()...)

	// Header and column agree on a huge row count the payload cannot hold.
	b.Reset()
	b.Write(hdr.Bytes())
	writeUvarint(&b, huge)
	writeUvarint(&b, uint64(chunk.Len()))
	b.Write(chunk.Bytes())
	cases["header row count"] = append([]byte(nil), b.Bytes()...)

	// Column count larger than the bytes that follow.
	b.Reset()
	writeUvarint(&b, huge)
	cases["column count"] = append([]byte(nil), b.Bytes()...)

	// Rows with no columns to carry them.
	b.Reset()
	writeUvarint(&b, 0)
	writeUvarint(&b, huge)
	cases["rows without columns"] = append([]byte(nil), b.Bytes()...)

	for name, data := range cases {
		if _, _, _, err := DecodeColumns(data); err == nil {
			t.Errorf("%s: DecodeColumns accepted %x", name, data)
		}
		if _, _, err := DecodeRows(data); err == nil {
			t.Errorf("%s: DecodeRows accepted %x", name, data)
		}
	}

	// DecodeColumn on its own bounds the row count by the bytes left.
	if _, err := DecodeColumn(chunk.Bytes()); err == nil {
		t.Error("DecodeColumn accepted a row count beyond its payload")
	}
}

// fuzzSeeds returns real EncodeColumns payloads covering every encoding the
// writer chooses (plain, RLE, delta, dict), NULLs, and zero rows.
func fuzzSeeds(t testing.TB) [][]byte {
	schema := types.Schema{Cols: []types.Column{
		{Name: "id", T: types.Int64},
		{Name: "grp", T: types.Int64},
		{Name: "val", T: types.Float64},
		{Name: "tag", T: types.Varchar},
		{Name: "ok", T: types.Bool},
	}}
	var rows []types.Row
	for i := 0; i < 200; i++ {
		row := types.Row{
			types.IntValue(int64(i)),                        // sorted: delta
			types.IntValue(int64(i / 50)),                   // few runs: RLE
			types.FloatValue(float64(i) * 0.5),              // plain
			types.StringValue([]string{"a", "bb", ""}[i%3]), // repetitive: dict
			types.BoolValue(i%7 == 0),
		}
		if i%11 == 0 {
			row[2] = types.NullValue(types.Float64)
			row[3] = types.NullValue(types.Varchar)
		}
		rows = append(rows, row)
	}
	scrambled := []types.Row{
		{types.IntValue(5), types.IntValue(-3), types.FloatValue(math.Inf(-1)), types.StringValue("x"), types.NullValue(types.Bool)},
		{types.IntValue(-9), types.IntValue(8), types.FloatValue(2), types.StringValue("yz"), types.BoolValue(true)},
	}
	var out [][]byte
	for _, rs := range [][]types.Row{rows, scrambled, nil} {
		cols, err := ColumnsFromRows(rs, schema)
		if err != nil {
			t.Fatal(err)
		}
		data, err := EncodeColumns(schema, cols, len(rs))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

// FuzzDecodeColumns feeds arbitrary bytes to the wire/WAL payload decoder:
// it must return an error rather than panic, and whatever it accepts must
// survive a re-encode and decode unchanged.
func FuzzDecodeColumns(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte{0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, cols, n, err := DecodeColumns(data)
		if err != nil {
			return
		}
		enc, err := EncodeColumns(schema, cols, n)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		schema2, cols2, n2, err := DecodeColumns(enc)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v", err)
		}
		if n2 != n || schema2.NumCols() != schema.NumCols() || len(cols2) != len(cols) {
			t.Fatalf("shape changed: %d rows x %d cols -> %d rows x %d cols", n, len(cols), n2, len(cols2))
		}
		for i, c := range schema.Cols {
			if schema2.Cols[i] != c {
				t.Fatalf("schema column %d: %v -> %v", i, c, schema2.Cols[i])
			}
		}
		for j := range cols {
			for i := 0; i < n; i++ {
				a, b := cols[j].Get(i), cols2[j].Get(i)
				if a.Null != b.Null || a.T != b.T || a.I != b.I || a.S != b.S || a.B != b.B ||
					math.Float64bits(a.F) != math.Float64bits(b.F) {
					t.Fatalf("col %d row %d: %v -> %v", j, i, a, b)
				}
			}
		}
	})
}

// TestFuzzSeedsCoverEncodings pins that the fuzz corpus really exercises
// every column encoding.
func TestFuzzSeedsCoverEncodings(t *testing.T) {
	seen := map[Encoding]bool{}
	for _, data := range fuzzSeeds(t) {
		r := bytes.NewReader(data)
		schema, err := readSchema(r)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := binary.ReadUvarint(r)
		if n == 0 {
			continue
		}
		for range schema.Cols {
			sz, _ := binary.ReadUvarint(r)
			chunk := make([]byte, sz)
			if _, err := readFull(r, chunk); err != nil {
				t.Fatal(err)
			}
			seen[Encoding(chunk[1])] = true
		}
	}
	for _, e := range []Encoding{EncPlain, EncRLE, EncDeltaVarint, EncDict} {
		if !seen[e] {
			t.Errorf("fuzz seeds never use %v", e)
		}
	}
}

// TestDecodeChecksColumnCountBeforeAllocating pins that a column whose row
// count disagrees with the header is rejected before its rows are built: an
// RLE chunk can claim millions of rows in a few bytes.
func TestDecodeChecksColumnCountBeforeAllocating(t *testing.T) {
	const claimed = 1 << 24
	var chunk bytes.Buffer
	chunk.WriteByte(byte(types.Int64))
	chunk.WriteByte(byte(EncRLE))
	writeUvarint(&chunk, claimed)
	chunk.WriteByte(0) // no NULLs
	writeUvarint(&chunk, claimed)
	writeVarint(&chunk, 7)
	var b bytes.Buffer
	writeSchema(&b, types.Schema{Cols: []types.Column{{Name: "a", T: types.Int64}}})
	writeUvarint(&b, 1) // the header says one row
	writeUvarint(&b, uint64(chunk.Len()))
	b.Write(chunk.Bytes())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, _, err := DecodeColumns(b.Bytes())
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("DecodeColumns accepted a column disagreeing with the header's row count")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting the payload allocated %d bytes", grew)
	}
}
