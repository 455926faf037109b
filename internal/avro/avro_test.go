package avro

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

var testSchema = Schema{Name: "row", Fields: []Field{
	{Name: "id", Type: types.Int64},
	{Name: "x", Type: types.Float64},
	{Name: "name", Type: types.Varchar},
	{Name: "ok", Type: types.Bool},
}}

var testRows = []types.Row{
	{types.IntValue(1), types.FloatValue(0.5), types.StringValue("hello"), types.BoolValue(true)},
	{types.IntValue(-1 << 40), types.NullValue(types.Float64), types.StringValue(""), types.BoolValue(false)},
	{types.NullValue(types.Int64), types.FloatValue(math.Pi), types.NullValue(types.Varchar), types.NullValue(types.Bool)},
}

func rowsEqual(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Null != b[i].Null {
			return false
		}
		if !a[i].Null && types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

// decodeRow decodes one record of data (and nothing else) back to a row.
func decodeRow(data []byte, s Schema) (types.Row, error) {
	builders := storage.NewBuilders(s.ToTypes())
	if err := decodeRecords(data, 1, s, builders); err != nil {
		return nil, err
	}
	row := make(types.Row, len(builders))
	for i, b := range builders {
		row[i] = b.Build().Get(0)
	}
	return row, nil
}

// readAll decodes every record of an OCF stream into one column per field.
func readAll(rd io.Reader) (Schema, []storage.Column, int, error) {
	r, err := NewReader(rd)
	if err != nil {
		return Schema{}, nil, 0, err
	}
	builders := storage.NewBuilders(r.schema.ToTypes())
	n := 0
	for {
		k, err := r.ReadBlock(builders)
		if err == io.EOF {
			break
		}
		if err != nil {
			return Schema{}, nil, 0, err
		}
		n += k
	}
	return r.schema, storage.BuildAll(builders), n, nil
}

// readRows decodes a whole OCF stream and boxes its columns into rows.
func readRows(rd io.Reader) (Schema, []types.Row, error) {
	schema, cols, n, err := readAll(rd)
	if err != nil {
		return schema, nil, err
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = make(types.Row, len(cols))
		for j, c := range cols {
			rows[i][j] = c.Get(i)
		}
	}
	return schema, rows, nil
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, -1, 1, 1 << 40, -(1 << 40), math.MaxInt64, math.MinInt64} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Errorf("zigzag round-trip %d -> %d", v, got)
		}
	}
}

func TestSchemaJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(testSchema)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseSchema(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Fields) != 4 || got.Fields[1].Type != types.Float64 {
		t.Errorf("parsed schema = %+v", got)
	}
}

func TestSchemaTypesConversion(t *testing.T) {
	ts := types.NewSchema(types.Column{Name: "a", T: types.Int64}, types.Column{Name: "b", T: types.Varchar})
	s := FromTypes(ts)
	if !s.ToTypes().Equal(ts) {
		t.Error("FromTypes/ToTypes round-trip failed")
	}
}

func TestRowBinaryRoundTrip(t *testing.T) {
	for _, r := range testRows {
		data, err := EncodeRow(nil, r, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeRow(data, testSchema)
		if err != nil {
			t.Fatal(err)
		}
		if !rowsEqual(r, got) {
			t.Errorf("round-trip: %v -> %v", r, got)
		}
	}
}

func TestOCFRoundTrip(t *testing.T) {
	for _, codec := range []Codec{CodecNull, CodecDeflate} {
		var buf bytes.Buffer
		w, err := NewWriter(&buf, testSchema, codec, 2) // small blocks to exercise boundaries
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range testRows {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		schema, rows, err := readRows(&buf)
		if err != nil {
			t.Fatalf("codec %s: %v", codec, err)
		}
		if !schema.ToTypes().Equal(testSchema.ToTypes()) {
			t.Errorf("codec %s: schema mismatch", codec)
		}
		if len(rows) != len(testRows) {
			t.Fatalf("codec %s: %d rows, want %d", codec, len(rows), len(testRows))
		}
		for i := range rows {
			if !rowsEqual(rows[i], testRows[i]) {
				t.Errorf("codec %s row %d: %v != %v", codec, i, rows[i], testRows[i])
			}
		}
	}
}

func TestOCFEmptyFile(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testSchema, CodecNull, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	_, rows, err := readRows(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("empty file yielded %d rows", len(rows))
	}
}

func TestOCFDeflateCompresses(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "s", Type: types.Varchar}}}
	row := types.Row{types.StringValue("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")}
	size := func(codec Codec) int {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, s, codec, 0)
		for i := 0; i < 1000; i++ {
			if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Len()
	}
	if nd, dd := size(CodecNull), size(CodecDeflate); dd >= nd/2 {
		t.Errorf("deflate (%d) should be much smaller than null (%d) on repetitive data", dd, nd)
	}
}

func TestOCFBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic should fail")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
}

func TestOCFTruncated(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, testSchema, CodecNull, 0)
	for _, r := range testRows {
		_ = w.Append(r)
	}
	_ = w.Close()
	data := buf.Bytes()
	if _, _, err := readRows(bytes.NewReader(data[:len(data)-4])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated file: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestRowBinaryQuick(t *testing.T) {
	s := Schema{Name: "row", Fields: []Field{{Name: "a", Type: types.Int64}, {Name: "b", Type: types.Varchar}}}
	f := func(a int64, b string) bool {
		r := types.Row{types.IntValue(a), types.StringValue(b)}
		data, err := EncodeRow(nil, r, s)
		if err != nil {
			return false
		}
		got, err := decodeRow(data, s)
		return err == nil && got[0].I == a && got[1].S == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeRowSchemaMismatch(t *testing.T) {
	if _, err := EncodeRow(nil, types.Row{types.IntValue(1)}, testSchema); err == nil {
		t.Error("short row should fail")
	}
}
