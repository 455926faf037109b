package types

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTypeString(t *testing.T) {
	cases := map[Type]string{Int64: "INTEGER", Float64: "FLOAT", Varchar: "VARCHAR", Bool: "BOOLEAN", Unknown: "UNKNOWN"}
	for typ, want := range cases {
		if got := typ.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", typ, got, want)
		}
	}
}

func TestParseType(t *testing.T) {
	cases := []struct {
		in   string
		want Type
	}{
		{"INTEGER", Int64}, {"int", Int64}, {"BIGINT", Int64},
		{"FLOAT", Float64}, {"double", Float64}, {"NUMERIC", Float64},
		{"VARCHAR", Varchar}, {"VARCHAR(80)", Varchar}, {"string", Varchar},
		{"BOOLEAN", Bool}, {"bool", Bool},
	}
	for _, c := range cases {
		got, err := ParseType(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseType(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseType("BLOB"); err == nil {
		t.Error("ParseType(BLOB) should fail")
	}
}

func TestValueConversions(t *testing.T) {
	if got := IntValue(42).AsFloat(); got != 42 {
		t.Errorf("IntValue(42).AsFloat() = %v", got)
	}
	if got := FloatValue(3.9).AsInt(); got != 3 {
		t.Errorf("FloatValue(3.9).AsInt() = %v", got)
	}
	if got := BoolValue(true).AsInt(); got != 1 {
		t.Errorf("BoolValue(true).AsInt() = %v", got)
	}
	if got := StringValue("2.5").AsFloat(); got != 2.5 {
		t.Errorf("StringValue(2.5).AsFloat() = %v", got)
	}
	if !math.IsNaN(NullValue(Float64).AsFloat()) {
		t.Error("NULL.AsFloat() should be NaN")
	}
	if NullValue(Int64).AsBool() {
		t.Error("NULL.AsBool() should be false")
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{IntValue(1), IntValue(2), -1},
		{IntValue(2), IntValue(2), 0},
		{FloatValue(2.5), IntValue(2), 1},
		{IntValue(2), FloatValue(2.0), 0},
		{StringValue("a"), StringValue("b"), -1},
		{BoolValue(false), BoolValue(true), -1},
		{BoolValue(true), BoolValue(true), 0},
		{NullValue(Int64), IntValue(0), -1},
		{NullValue(Int64), NullValue(Varchar), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Compare(IntValue(a), IntValue(b)) == -Compare(IntValue(b), IntValue(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", T: Int64},
		Column{Name: "val", T: Float64},
		Column{Name: "name", T: Varchar},
	)
	if s.NumCols() != 3 {
		t.Fatalf("NumCols = %d", s.NumCols())
	}
	if s.ColIndex("VAL") != 1 {
		t.Errorf("ColIndex(VAL) = %d, want 1 (case-insensitive)", s.ColIndex("VAL"))
	}
	if s.ColIndex("missing") != -1 {
		t.Error("ColIndex(missing) should be -1")
	}
	proj, idx, err := s.Project([]string{"name", "id"})
	if err != nil {
		t.Fatal(err)
	}
	if proj.NumCols() != 2 || proj.Cols[0].Name != "name" || idx[1] != 0 {
		t.Errorf("Project = %v idx %v", proj, idx)
	}
	if _, _, err := s.Project([]string{"nope"}); err == nil {
		t.Error("Project(nope) should fail")
	}
	if !s.Equal(s) {
		t.Error("schema should equal itself")
	}
	s2 := NewSchema(Column{Name: "ID", T: Int64}, Column{Name: "val", T: Float64}, Column{Name: "name", T: Varchar})
	if !s.Equal(s2) {
		t.Error("schema equality should be case-insensitive")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{IntValue(1), StringValue("x")}
	c := r.Clone()
	c[0] = IntValue(9)
	if r[0].I != 1 {
		t.Error("Clone must not alias")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", T: Int64},
		Column{Name: "val", T: Float64},
		Column{Name: "name", T: Varchar},
		Column{Name: "ok", T: Bool},
	)
	rows := []Row{
		{IntValue(1), FloatValue(0.5), StringValue("hello"), BoolValue(true)},
		{IntValue(-7), NullValue(Float64), StringValue("with,comma"), BoolValue(false)},
		{NullValue(Int64), FloatValue(1e-9), StringValue(`say "hi"`), NullValue(Bool)},
	}
	for _, r := range rows {
		line := FormatCSV(r, ',')
		got, err := ParseCSV(line, s, ',')
		if err != nil {
			t.Fatalf("ParseCSV(%q): %v", line, err)
		}
		for i := range r {
			// VARCHAR NULL degrades to empty string on round-trip; that is
			// the documented CSV limitation.
			if r[i].T == Varchar && r[i].Null {
				continue
			}
			if r[i].Null != got[i].Null || (!r[i].Null && Compare(r[i], got[i]) != 0) {
				t.Errorf("round-trip mismatch col %d: %v -> %v (line %q)", i, r[i], got[i], line)
			}
		}
	}
}

func TestCSVRoundTripQuick(t *testing.T) {
	s := NewSchema(Column{Name: "a", T: Int64}, Column{Name: "b", T: Float64})
	f := func(a int64, b float64) bool {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return true
		}
		r := Row{IntValue(a), FloatValue(b)}
		got, err := ParseCSV(FormatCSV(r, ','), s, ',')
		return err == nil && got[0].I == a && got[1].F == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCSVErrors(t *testing.T) {
	s := NewSchema(Column{Name: "a", T: Int64})
	if _, err := ParseCSV("notanumber", s, ','); err == nil {
		t.Error("bad integer should fail")
	}
	if _, err := ParseCSV("1,2", s, ','); err == nil {
		t.Error("wrong field count should fail")
	}
	if _, err := ParseCSV(`"unterminated`, NewSchema(Column{Name: "a", T: Varchar}), ','); err == nil {
		t.Error("unterminated quote should fail")
	}
}

func TestWireSize(t *testing.T) {
	r := Row{IntValue(1), FloatValue(2), BoolValue(true), StringValue("abc")}
	if got := WireSize(r); got != 8+8+1+4+3 {
		t.Errorf("WireSize = %d, want %d", got, 8+8+1+4+3)
	}
}

// FuzzParseCSV fuzzes the CSV COPY parser over a record of every column
// type: no input may panic it, and a record it accepts must survive
// FormatCSV and a second parse unchanged.
func FuzzParseCSV(f *testing.F) {
	s := NewSchema(
		Column{Name: "id", T: Int64},
		Column{Name: "val", T: Float64},
		Column{Name: "name", T: Varchar},
		Column{Name: "ok", T: Bool},
	)
	for _, seed := range []string{
		"1,0.5,hello,true",
		"-7,,\"with,comma\",false",
		",1e-09,\"say \"\"hi\"\"\",",
		",,,",
		"0,-0,\"\",t",
		"9223372036854775807,NaN,x,1",
		"+3,-Inf,\"multi\nline\",F",
		"\"42\",\"3.25\",\"q\"\"\",\"TRUE\"",
		"1,2,\"unterminated",
		"1,2,3",
		"x,y,z,w",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		first, err := ParseCSV(line, s, ',')
		if err != nil {
			return
		}
		text := FormatCSV(first, ',')
		second, err := ParseCSV(text, s, ',')
		if err != nil {
			t.Fatalf("ParseCSV(%q) accepted, its FormatCSV %q rejected: %v", line, text, err)
		}
		for i := range first {
			a, b := first[i], second[i]
			same := a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
				(a.F == b.F || math.IsNaN(a.F) && math.IsNaN(b.F))
			if !same {
				t.Fatalf("ParseCSV(%q) col %d = %#v, after FormatCSV %q: %#v", line, i, a, text, b)
			}
		}
	})
}
