package storage

import (
	"math"
	"math/rand"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
)

// TestHashColumnsMatchesHashRow checks the column-at-a-time hash equals
// vhash.HashRow row by row: NULLs of every type, integral, non-integral and
// special floats, empty strings, both booleans, and run-length-compressed
// integers, over single, multi-column and whole-row (empty index) hashes.
func TestHashColumnsMatchesHashRow(t *testing.T) {
	schema := types.NewSchema(
		types.Column{Name: "i", T: types.Int64},
		types.Column{Name: "f", T: types.Float64},
		types.Column{Name: "s", T: types.Varchar},
		types.Column{Name: "b", T: types.Bool},
		types.Column{Name: "run", T: types.Int64},
	)
	floats := []float64{0, -0.5, 3, -7, 1e300, math.Inf(1), math.Inf(-1), math.NaN(), 2.25, math.MaxInt64}
	rng := rand.New(rand.NewSource(3))
	rows := make([]types.Row, 500)
	for i := range rows {
		r := types.Row{
			types.IntValue(rng.Int63() - rng.Int63()),
			types.FloatValue(floats[rng.Intn(len(floats))]),
			types.StringValue([]string{"", "a", "héllo", "x\x00y"}[rng.Intn(4)]),
			types.BoolValue(rng.Intn(2) == 0),
			types.IntValue(int64(i / 100)),
		}
		for j := 0; j < 4; j++ {
			if rng.Intn(6) == 0 {
				r[j] = types.NullValue(schema.Cols[j].T)
			}
		}
		rows[i] = r
	}
	cols, err := ColumnsFromRows(rows, schema)
	if err != nil {
		t.Fatal(err)
	}
	cols[4] = CompressColumn(cols[4])
	if _, ok := cols[4].(*Int64RLEColumn); !ok {
		t.Fatal("run column did not compress; the RLE case is not covered")
	}
	for _, segIdx := range [][]int{nil, {0}, {1}, {2}, {3}, {4}, {2, 1}, {0, 1, 2, 3, 4}} {
		got := HashColumns(cols, segIdx, len(rows))
		for i, r := range rows {
			if want := vhash.HashRow(r, segIdx); got[i] != want {
				t.Fatalf("segIdx %v row %d (%v): HashColumns %#x, HashRow %#x", segIdx, i, r, got[i], want)
			}
		}
	}
	if HashColumns(nil, []int{0}, 0) != nil {
		t.Error("zero rows should hash to nil")
	}
}
