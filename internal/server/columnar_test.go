package server

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// sameValue reports whether two values are identical: same type, same
// NULL-ness, same payload (floats bit for bit).
func sameValue(a, b types.Value) bool {
	return a.T == b.T && a.Null == b.Null && a.I == b.I && a.S == b.S && a.B == b.B &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// sameResultSet fails the test unless got has want's schema and rows, in
// the same order.
func sameResultSet(t *testing.T, label string, wantSchema types.Schema, want []types.Row, gotSchema types.Schema, got []types.Row) {
	t.Helper()
	if gotSchema.NumCols() != wantSchema.NumCols() {
		t.Fatalf("%s: schema %v, want %v", label, gotSchema.Cols, wantSchema.Cols)
	}
	for i, c := range wantSchema.Cols {
		if gotSchema.Cols[i] != c {
			t.Fatalf("%s: column %d is %v, want %v", label, i, gotSchema.Cols[i], c)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: width %d, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !sameValue(got[i][j], want[i][j]) {
				t.Fatalf("%s row %d col %d: %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// insertRandom inserts ids [lo, hi) shifted by -20000 with seeded values and NULLs in every
// column but id, in INSERT statements of at most 4000 rows.
func insertRandom(t *testing.T, s *vertica.Session, rng *rand.Rand, lo, hi int) {
	t.Helper()
	names := []string{"'alpha'", "'beta'", "''", "'it''s'", "NULL"}
	for start := lo; start < hi; start += 4000 {
		var b strings.Builder
		b.WriteString("INSERT INTO t VALUES ")
		for id := start; id < min(start+4000, hi); id++ {
			if id > start {
				b.WriteString(", ")
			}
			grp, val, ok := fmt.Sprint(rng.Intn(6)), fmt.Sprintf("%g", rng.NormFloat64()*100), []string{"TRUE", "FALSE", "NULL"}[rng.Intn(3)]
			if rng.Intn(10) == 0 {
				grp = "NULL"
			}
			if rng.Intn(10) == 0 {
				val = "NULL"
			}
			fmt.Fprintf(&b, "(%d, %s, %s, %s, %s)", id-20000, grp, val, names[rng.Intn(len(names))], ok)
		}
		if _, err := s.Execute(b.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestColumnarResultsMatchInProcess is the equivalence property for the
// columnar result path: over binary wire v2, TCPConn.Execute and
// ExecuteStream return exactly the rows, in the same order, that an
// in-process Session.Execute returns, for a table whose data sits in ROS
// containers reopened (decoded) from disk, in the WOS, and behind delete
// vectors, with NULLs in every nullable column.
func TestColumnarResultsMatchInProcess(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(12))
	cl, err := vertica.NewCluster(vertica.Config{Nodes: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER, val FLOAT, name VARCHAR, ok BOOLEAN) SEGMENTED BY HASH(id)")
	for part := 0; part < 3; part++ {
		insertRandom(t, s, rng, part*18000, (part+1)*18000)
		if err := cl.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the ROS containers now come back decoded from their files.
	cl, err = vertica.NewCluster(vertica.Config{Nodes: 3, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err = cl.Connect(0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.MustExecute("DELETE FROM t WHERE grp = 3")
	insertRandom(t, s, rng, 54000, 57000) // stays in the WOS
	s.MustExecute("DELETE FROM t WHERE name = 'beta' AND id > 20000")
	epoch, err := s.MustExecute("SELECT LAST_EPOCH()").Value()
	if err != nil {
		t.Fatal(err)
	}
	s.MustExecute("DELETE FROM t WHERE MOD(id, 5) = 0")
	insertRandom(t, s, rng, 57000, 58000)

	srv := New(cl, 0)
	ep, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := DialContext(bg, ep, WithProtocol(protocolV2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	queries := []string{
		"SELECT * FROM t",
		"SELECT name, id, id AS id2, val AS v, ok FROM t",
		"SELECT ok, grp FROM t WHERE HASH(id) >= 1000000000 AND HASH(id) < 3000000000 AND grp > 1 AND val IS NOT NULL",
		fmt.Sprintf("AT EPOCH %d SELECT id, name FROM t", epoch.I),
		fmt.Sprintf("AT EPOCH %d SELECT * FROM t WHERE HASH(id) < 2000000000", epoch.I),
		"SELECT id, val FROM t LIMIT 20000",
		"SELECT * FROM t WHERE id < -1000000",
		"SELECT * FROM t LIMIT 0",
		// Row-shaped results, converted to columns once in the engine.
		"SELECT id, val * 2 AS v2, grp + 1 FROM t WHERE grp = 1",
		"SELECT grp, COUNT(*) AS n, AVG(val) FROM t GROUP BY grp ORDER BY grp",
		"SELECT id, name FROM t WHERE ok = TRUE ORDER BY id DESC LIMIT 100",
	}
	for _, q := range queries {
		want, err := s.Execute(q)
		if err != nil {
			t.Fatalf("%s: in-process: %v", q, err)
		}
		got, err := c.Execute(bg, q)
		if err != nil {
			t.Fatalf("%s: TCP Execute: %v", q, err)
		}
		sameResultSet(t, q+" (Execute)", want.Schema, want.Rows, got.Schema, got.Rows)
		if got.Epoch != want.Epoch {
			t.Fatalf("%s: epoch %d over the wire, %d in process", q, got.Epoch, want.Epoch)
		}

		var streamed []types.Row
		frames := 0
		sres, err := c.ExecuteStream(bg, q, func(schema types.Schema, cols []storage.Column, n int) error {
			frames++
			if n > wireBatchRows {
				return fmt.Errorf("frame of %d rows exceeds %d", n, wireBatchRows)
			}
			for i := 0; i < n; i++ {
				row := make(types.Row, len(cols))
				for j, col := range cols {
					row[j] = col.Get(i)
				}
				streamed = append(streamed, row)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: ExecuteStream: %v", q, err)
		}
		sameResultSet(t, q+" (ExecuteStream)", want.Schema, want.Rows, sres.Schema, streamed)
		// Frames are packed full: a zero-row result still sends its schema
		// frame, anything else exactly ceil(rows / wireBatchRows).
		wantFrames := max(1, (len(want.Rows)+wireBatchRows-1)/wireBatchRows)
		if frames != wantFrames {
			t.Fatalf("%s: %d frames for %d rows, want %d", q, frames, len(want.Rows), wantFrames)
		}
	}

	// The large shapes really span several frames and the zero-row ones
	// really are empty, so the property above covers both edges.
	for q, check := range map[string]func(n int) bool{
		"SELECT * FROM t":                     func(n int) bool { return n > 2*wireBatchRows },
		"SELECT id, val FROM t LIMIT 20000":   func(n int) bool { return n == 20000 },
		"SELECT * FROM t WHERE id < -1000000": func(n int) bool { return n == 0 },
	} {
		if n := len(s.MustExecute(q).Rows); !check(n) {
			t.Errorf("%s: %d rows does not exercise its edge", q, n)
		}
	}
}
