package vertica

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/obs"
	"vsfabric/internal/sim"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// TestBatchWireSizesMatchRowModels checks the column-computed accounting
// against the per-row models it replaces, on random values: negative and
// extreme integers, NULLs in every type, bools, empty strings, and a
// run-length-encoded integer column.
func TestBatchWireSizesMatchRowModels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	schema := types.NewSchema(
		types.Column{Name: "i", T: types.Int64},
		types.Column{Name: "f", T: types.Float64},
		types.Column{Name: "s", T: types.Varchar},
		types.Column{Name: "b", T: types.Bool},
		types.Column{Name: "r", T: types.Int64},
	)
	ints := []int64{0, 1, -1, 9, 10, -10, 99, -100, math.MaxInt64, math.MinInt64, 123456789, -987654321}
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(300)
		rows := make([]types.Row, n)
		for k := range rows {
			row := types.Row{
				types.IntValue(ints[rng.Intn(len(ints))] + int64(rng.Intn(3)-1)),
				types.FloatValue(rng.NormFloat64() * 1e6),
				types.StringValue(strings.Repeat("x", rng.Intn(4))),
				types.BoolValue(rng.Intn(2) == 0),
				types.IntValue(int64(k/50) - 3), // long runs: RLE-compressible
			}
			for j := 0; j < 4; j++ {
				if rng.Intn(5) == 0 {
					row[j] = types.NullValue(schema.Cols[j].T)
				}
			}
			rows[k] = row
		}
		cols, err := storage.ColumnsFromRows(rows, schema)
		if err != nil {
			t.Fatal(err)
		}
		cols[4] = storage.CompressColumn(cols[4])
		var sel []int32
		wantText, wantWire := 0, 0
		for k := range rows {
			if rng.Intn(3) > 0 {
				sel = append(sel, int32(k))
				wantText += textWireSize(rows[k])
				wantWire += types.WireSize(rows[k])
			}
		}
		b := &storage.Batch{Schema: schema, Cols: cols, Sel: sel}
		if got := batchTextWireSize(b); got != wantText {
			t.Fatalf("trial %d: batchTextWireSize = %d, per-row textWireSize sums to %d", trial, got, wantText)
		}
		if got := batchWireSize(b); got != wantWire {
			t.Fatalf("trial %d: batchWireSize = %d, per-row WireSize sums to %d", trial, got, wantWire)
		}
	}
	if _, rle := storage.CompressColumn(&storage.Int64Column{Vals: make([]int64, 300)}).(*storage.Int64RLEColumn); !rle {
		t.Fatal("test premise: a constant column should compress to RLE")
	}
}

// flowCapture collects the QueryFlowEv payloads a statement records.
type flowCapture struct {
	mu  sync.Mutex
	evs []sim.Event
}

func (f *flowCapture) SpanEnd(obs.Span) {}

func (f *flowCapture) Event(ev obs.Event) {
	if e, ok := ev.Payload.(sim.Event); ok && e.Type == sim.QueryFlowEv {
		f.mu.Lock()
		f.evs = append(f.evs, e)
		f.mu.Unlock()
	}
}

func (f *flowCapture) last(t *testing.T) sim.Event {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.evs) == 0 {
		t.Fatal("no QueryFlowEv recorded")
	}
	return f.evs[len(f.evs)-1]
}

// TestQueryFlowAccountingFromColumns checks the QueryFlowEv a SELECT
// records — text-protocol result bytes, result rows, and the shuffle bytes
// gathered from another node — equals the per-row models over the rows the
// query returns, for column-form and row-form results alike.
func TestQueryFlowAccountingFromColumns(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	buildRandomTable(t, s, c, rand.New(rand.NewSource(3)), 900)
	tbl, _ := c.Catalog().Table("t")
	var lo, hi uint64
	for i, r := range tbl.SegmentRanges() {
		if tbl.Ring[i] == 1 {
			lo, hi = r.Lo, r.Hi
		}
	}
	queries := []string{
		"SELECT * FROM t",
		"SELECT name, id, id AS again FROM t WHERE grp > 2",
		"SELECT id, val * 2 FROM t WHERE grp = 1",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp",
		"SELECT * FROM t LIMIT 5",
		// Every row of this one is gathered from node 1's segment.
		fmt.Sprintf("SELECT name, id FROM t WHERE HASH(id) >= %d AND HASH(id) < %d", lo, hi),
	}
	for _, q := range queries {
		for _, columns := range []bool{false, true} {
			capt := &flowCapture{}
			ctx := obs.With(context.Background(), capt)
			var rows []types.Row
			if columns {
				res, err := s.ExecuteColumns(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				rows = materialize(res.Batches)
			} else {
				res, err := s.ExecuteContext(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				rows = res.Rows
			}
			ev := capt.last(t)
			wantBytes, wantWire := 0, 0
			for _, r := range rows {
				wantBytes += textWireSize(r)
				wantWire += types.WireSize(r)
			}
			if ev.ResultRows != float64(len(rows)) || ev.ResultBytes != float64(wantBytes) {
				t.Fatalf("%s (columns=%v): flow %v rows / %v bytes, want %d / %d",
					q, columns, ev.ResultRows, ev.ResultBytes, len(rows), wantBytes)
			}
			if strings.Contains(q, "HASH(id)") {
				shuffled := 0.0
				for _, b := range ev.Shuffle {
					shuffled += b
				}
				if len(rows) == 0 || shuffled != float64(wantWire) {
					t.Fatalf("%s: shuffle %v bytes over %d rows, want %d", q, shuffled, len(rows), wantWire)
				}
			}
		}
	}
}

// TestColumnFormResultRowCounts checks a column-form result — the scan's
// own batches, not one converted batch — reports its true row count in the
// execute span, v_monitor.query_requests, and Result.NumRows.
func TestColumnFormResultRowCounts(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildRandomTable(t, s, c, rand.New(rand.NewSource(5)), 600)
	const q = "SELECT name, id FROM t WHERE id >= 100"
	res, err := s.ExecuteColumns(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != nil || len(res.Batches) < 2 {
		t.Fatalf("want the scan's batches in column form, got %d rows and %d batches", len(res.Rows), len(res.Batches))
	}
	want := int64(len(s.MustExecute(q).Rows))
	if got := int64(res.NumRows()); got != want || want == 0 {
		t.Fatalf("NumRows = %d, row form has %d rows", got, want)
	}
	qr := s.MustExecute("SELECT request, result_rows FROM v_monitor.query_requests")
	found := 0
	for _, r := range qr.Rows {
		if r[0].S == q {
			found++
			if r[1].I != want {
				t.Errorf("query_requests result_rows = %d, want %d", r[1].I, want)
			}
		}
	}
	if found != 2 {
		t.Fatalf("want 2 query_requests rows for %q, found %d", q, found)
	}
}
