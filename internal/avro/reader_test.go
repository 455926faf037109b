package avro

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// ocfBytes writes rows as one OCF stream.
func ocfBytes(t testing.TB, s Schema, codec Codec, blockRows int, rows []types.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, s, codec, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestReaderHugeBlockClaim is the regression test for a header-driven
// allocation: a short stream whose block header claims 2^31 bytes used to
// make the reader allocate 2 GiB before failing. Now it allocates about
// what arrived and fails as truncated.
func TestReaderHugeBlockClaim(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "n", Type: types.Int64}}}
	data := ocfBytes(t, s, CodecNull, 0, nil)
	data = appendLong(data, 1)
	data = appendLong(data, 1<<31)
	data = append(data, bytes.Repeat([]byte{2}, 16)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, _, err := readAll(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("a %d-byte stream allocated %d bytes", len(data), got)
	}
}

// TestReaderTruncatedBlock is the regression test for silent truncation:
// a stream cut inside a block (before its sync marker, or between its
// header and its data) used to end cleanly with the rows of the earlier
// blocks. Every cut inside a block must now fail with io.ErrUnexpectedEOF.
func TestReaderTruncatedBlock(t *testing.T) {
	rows := []types.Row{testRows[0], testRows[1], testRows[2], testRows[0]}
	for _, codec := range []Codec{CodecNull, CodecDeflate} {
		full := ocfBytes(t, testSchema, codec, 2, rows)
		// The second block starts where a file of just the first ends
		// (sync markers differ per file, their length does not).
		second := len(ocfBytes(t, testSchema, codec, 2, rows[:2]))
		for name, cut := range map[string]int{
			"missing last sync marker": len(full) - 16,
			"mid sync marker":          len(full) - 3,
			"after block header":       second + 2,
			"mid block data":           second + 5,
		} {
			_, _, n, err := readAll(bytes.NewReader(full[:cut]))
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("%s/%s: %d rows, err = %v, want io.ErrUnexpectedEOF", codec, name, n, err)
			}
		}
	}
}

// TestReaderBlockCountChecked checks a block's record count against its
// decoded length in both directions, and string lengths against the bytes
// left.
func TestReaderBlockCountChecked(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "s", Type: types.Varchar}}}
	rec, err := EncodeRow(nil, types.Row{types.StringValue("abc")}, s)
	if err != nil {
		t.Fatal(err)
	}
	block := append(append([]byte(nil), rec...), rec...) // two records
	for _, c := range []struct {
		name  string
		count int64
		data  []byte
	}{
		{"more records than data", 3, block},
		{"fewer records than data", 1, block},
		{"negative count", -1, block},
		{"string past block end", 1, []byte{2, 40, 'a', 'b'}},
		{"negative string length", 1, []byte{2, 1, 'a'}},
		{"bad union branch", 1, []byte{4, 2, 'a'}},
	} {
		if err := decodeRecords(c.data, c.count, s, storage.NewBuilders(s.ToTypes())); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
	if err := decodeRecords(block, 2, s, storage.NewBuilders(s.ToTypes())); err != nil {
		t.Errorf("well-formed block: %v", err)
	}
}

// TestWriterReusesBlockState checks a multi-block deflate file written with
// the reused compressor decodes to the same rows, block after block.
func TestWriterReusesBlockState(t *testing.T) {
	var rows []types.Row
	for i := 0; i < 1000; i++ {
		rows = append(rows, testRows[i%len(testRows)])
	}
	_, got, err := readRows(bytes.NewReader(ocfBytes(t, testSchema, CodecDeflate, 7, rows)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("%d rows, want %d", len(got), len(rows))
	}
	for i := range rows {
		if !rowsEqual(got[i], rows[i]) {
			t.Fatalf("row %d: %v != %v", i, got[i], rows[i])
		}
	}
}

// FuzzAvroReader feeds arbitrary bytes to the OCF reader: it must never
// panic, and any stream it accepts must re-encode to a stream that decodes
// to the same values.
func FuzzAvroReader(f *testing.F) {
	for _, codec := range []Codec{CodecNull, CodecDeflate} {
		f.Add(ocfBytes(f, testSchema, codec, 2, testRows))
		f.Add(ocfBytes(f, testSchema, codec, 0, nil))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		schema, rows, err := readRows(bytes.NewReader(data))
		if err != nil {
			return
		}
		again := ocfBytes(t, schema, CodecNull, 3, rows)
		_, back, err := readRows(bytes.NewReader(again))
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if len(back) != len(rows) {
			t.Fatalf("round trip: %d rows, want %d", len(back), len(rows))
		}
		for i := range rows {
			if !sameValues(back[i], rows[i]) {
				t.Fatalf("round trip row %d: %v != %v", i, back[i], rows[i])
			}
		}
	})
}

// sameValues compares rows bit for bit (NaN equals itself).
func sameValues(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Null != y.Null || x.T != y.T {
			return false
		}
		if x.Null {
			continue
		}
		switch x.T {
		case types.Float64:
			if math.Float64bits(x.F) != math.Float64bits(y.F) {
				return false
			}
		default:
			if types.Compare(x, y) != 0 {
				return false
			}
		}
	}
	return true
}
