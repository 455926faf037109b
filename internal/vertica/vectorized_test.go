package vertica

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"vsfabric/internal/expr"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// parseWhere extracts the WHERE expression from a SELECT over table t.
func parseWhere(t *testing.T, cond string) expr.Expr {
	t.Helper()
	if cond == "" {
		return nil
	}
	st, err := vsql.Parse("SELECT * FROM t WHERE " + cond)
	if err != nil {
		t.Fatalf("parse %q: %v", cond, err)
	}
	return st.(*vsql.Select).Where
}

// buildRandomTable fills table t with random rows (NULLs included), leaves a
// mix of ROS containers, deleted rows, and WOS rows behind, and returns the
// row count inserted.
func buildRandomTable(t *testing.T, s *Session, c *Cluster, rng *rand.Rand, n int) {
	t.Helper()
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER, val FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	names := []string{"alpha", "beta", "gamma", "delta", ""}
	insert := func(lo, hi int) {
		var vals []string
		for i := lo; i < hi; i++ {
			grp := fmt.Sprintf("%d", rng.Intn(10))
			if rng.Intn(10) == 0 {
				grp = "NULL"
			}
			val := fmt.Sprintf("%.2f", rng.Float64()*100)
			if rng.Intn(10) == 0 {
				val = "NULL"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s, %s, '%s')", i, grp, val, names[rng.Intn(len(names))]))
		}
		s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	}
	// First two thirds become ROS containers; deletes land on them; the rest
	// stays in WOS so every storage tier is exercised.
	insert(0, n/3)
	if err := c.Moveout(); err != nil {
		t.Fatal(err)
	}
	insert(n/3, 2*n/3)
	if err := c.Moveout(); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("DELETE FROM t WHERE grp = 7")
	insert(2*n/3, n)
}

// TestScanTableMatchesRowAtATime is the end-to-end property test: the
// vectorized parallel scan must return exactly the rows, order included, of
// the retained row-at-a-time reference for a spread of predicates.
func TestScanTableMatchesRowAtATime(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	rng := rand.New(rand.NewSource(42))
	buildRandomTable(t, s, c, rng, 900)
	tbl, ok := c.Catalog().Table("t")
	if !ok {
		t.Fatal("table t missing")
	}
	vis := snapshotVis(c)
	preds := []string{
		"",
		"id < 100",
		"grp = 3",
		"100 <= id",
		"val > 50.0 AND grp <> 2",
		"grp IS NULL",
		"val IS NOT NULL AND name = 'beta'",
		"grp = 3 OR grp = 5",
		"NOT (grp = 3)",
		"name < 'c'",
		"id = -1",
		"HASH(id) >= 1000000",
		"HASH(id) < 2000000000 AND grp <= 4",
		"MOD(id, 2) = 0",
	}
	for _, cond := range preds {
		where := parseWhere(t, cond)
		wantRows, wantSchema, err := s.scanTableRowAtATime(tbl, where, vis, newScanStats())
		if err != nil {
			t.Fatalf("reference scan %q: %v", cond, err)
		}
		gotBatches, _, gotSchema, err := s.scanTable(tbl, where, vis, newScanStats(), scanOpts{limit: -1})
		if err != nil {
			t.Fatalf("vectorized scan %q: %v", cond, err)
		}
		gotRows := materialize(gotBatches)
		if len(gotSchema.Cols) != len(wantSchema.Cols) {
			t.Fatalf("%q: schema width %d vs %d", cond, len(gotSchema.Cols), len(wantSchema.Cols))
		}
		if len(gotRows) != len(wantRows) {
			t.Fatalf("%q: vectorized %d rows, reference %d", cond, len(gotRows), len(wantRows))
		}
		for i := range gotRows {
			for j := range gotRows[i] {
				if types.Compare(gotRows[i][j], wantRows[i][j]) != 0 {
					t.Fatalf("%q row %d: %v vs %v", cond, i, gotRows[i], wantRows[i])
				}
			}
		}
		// countOnly must agree with the materialized row count.
		_, count, _, err := s.scanTable(tbl, where, vis, newScanStats(), scanOpts{limit: -1, countOnly: true})
		if err != nil {
			t.Fatalf("count scan %q: %v", cond, err)
		}
		if count != int64(len(wantRows)) {
			t.Fatalf("%q: countOnly = %d, want %d", cond, count, len(wantRows))
		}
	}
}

func TestScanTableNeedCols(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, val FLOAT, name VARCHAR) SEGMENTED BY HASH(id)")
	s.MustExecute("INSERT INTO t VALUES (1, 1.5, 'a'), (2, 2.5, 'b'), (3, 3.5, 'c')")
	tbl, _ := c.Catalog().Table("t")
	vis := snapshotVis(c)
	batches, _, schema, err := s.scanTable(tbl, parseWhere(t, "val > 2.0"), vis,
		newScanStats(), scanOpts{limit: -1, needCols: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	rows := materialize(batches)
	if len(schema.Cols) != 1 || schema.Cols[0].Name != "name" {
		t.Fatalf("narrowed schema = %v", schema.Cols)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if len(r) != 1 || r[0].T != types.Varchar {
			t.Fatalf("row %v not narrowed to name column", r)
		}
	}
	// Unresolvable names fall back to the full schema rather than failing.
	batches, _, schema, err = s.scanTable(tbl, nil, vis,
		newScanStats(), scanOpts{limit: -1, needCols: []string{"nope"}})
	if err != nil {
		t.Fatal(err)
	}
	rows = materialize(batches)
	if len(schema.Cols) != 3 || len(rows) != 3 {
		t.Fatalf("fallback returned %d cols, %d rows", len(schema.Cols), len(rows))
	}
}

func TestLimitPushdown(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 500; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))

	all := s.MustExecute("SELECT id FROM t WHERE grp = 3")
	limited := s.MustExecute("SELECT id FROM t WHERE grp = 3 LIMIT 7")
	if len(limited.Rows) != 7 {
		t.Fatalf("LIMIT 7 returned %d rows", len(limited.Rows))
	}
	// The limited result must be a prefix of the unlimited scan: same
	// deterministic merge order, truncated.
	for i, r := range limited.Rows {
		if r[0].I != all.Rows[i][0].I {
			t.Fatalf("LIMIT row %d = %v, unlimited prefix has %v", i, r, all.Rows[i])
		}
	}
	if res := s.MustExecute("SELECT id FROM t LIMIT 0"); len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0 returned %d rows", len(res.Rows))
	}
	// LIMIT must not truncate the scan when ORDER BY sorts the output...
	res := s.MustExecute("SELECT id FROM t ORDER BY id DESC LIMIT 3")
	if len(res.Rows) != 3 || res.Rows[0][0].I != 499 || res.Rows[2][0].I != 497 {
		t.Fatalf("ORDER BY ... LIMIT = %v", res.Rows)
	}
	// ...or when aggregates consume every row.
	res = s.MustExecute("SELECT COUNT(*) FROM t WHERE grp = 3 LIMIT 1")
	if v, _ := res.Value(); v.I != 50 {
		t.Fatalf("COUNT under LIMIT = %v", v)
	}
	res = s.MustExecute("SELECT grp, COUNT(*) FROM t GROUP BY grp LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("GROUP BY ... LIMIT 2 returned %d rows", len(res.Rows))
	}
}

func TestCountPushdown(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 300; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	if err := c.Moveout(); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("INSERT INTO t VALUES (300, 0), (301, 1)") // WOS rows
	s.MustExecute("DELETE FROM t WHERE id >= 290 AND id < 300")

	checks := []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM t", 292},
		{"SELECT COUNT(*) FROM t WHERE grp = 3", 29},
		{"SELECT COUNT(*) FROM t WHERE id < 0", 0},
		{"SELECT COUNT(*) AS n FROM t WHERE grp <= 1", 60},
	}
	for _, ck := range checks {
		res := s.MustExecute(ck.sql)
		v, err := res.Value()
		if err != nil || v.I != ck.want {
			t.Errorf("%s = %v (err %v), want %d", ck.sql, v, err, ck.want)
		}
	}
	// The aliased count keeps its alias as the output column name.
	res := s.MustExecute("SELECT COUNT(*) AS n FROM t")
	if res.Schema.Cols[0].Name != "n" {
		t.Errorf("aliased COUNT column = %q", res.Schema.Cols[0].Name)
	}
	res = s.MustExecute("SELECT COUNT(*) FROM t")
	if res.Schema.Cols[0].Name != "count" {
		t.Errorf("default COUNT column = %q", res.Schema.Cols[0].Name)
	}
	if res := s.MustExecute("SELECT COUNT(*) FROM t LIMIT 0"); len(res.Rows) != 0 {
		t.Errorf("COUNT ... LIMIT 0 returned rows")
	}
	// System-table counts take the regular path but must still be right.
	res = s.MustExecute("SELECT COUNT(*) FROM v_catalog.tables")
	if v, _ := res.Value(); v.I != 1 {
		t.Errorf("v_catalog.tables count = %v", v)
	}
}

// TestQueriesMatchRefSelect runs a small scan, count, aggregate and LIMIT
// workload on the production pipeline and on the row-at-a-time reference:
// results must be identical, order included.
func TestQueriesMatchRefSelect(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 200; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%7))
	}
	s.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	for _, q := range []string{
		"SELECT id FROM t WHERE grp = 2",
		"SELECT COUNT(*) FROM t WHERE id >= 100",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp",
		"SELECT id FROM t WHERE grp = 5 LIMIT 4",
	} {
		sameResults(t, q, s.MustExecute(q), mustRefSelect(t, s, q))
	}
}

func TestHashJoinTypedKeys(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE a (k INTEGER, tag VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("CREATE TABLE b (k VARCHAR, note VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("INSERT INTO a VALUES (1, 'int-one')")
	s.MustExecute("INSERT INTO b VALUES ('1', 'string-one')")
	// INTEGER 1 and VARCHAR '1' are different values: no join output. (The
	// old string-rendered build keys made them collide.)
	res := s.MustExecute("SELECT a.tag, b.note FROM a JOIN b ON a.k = b.k")
	if len(res.Rows) != 0 {
		t.Fatalf("INTEGER joined VARCHAR: %v", res.Rows)
	}
	// INTEGER 1 and FLOAT 1.0 are equal per types.Compare: they must join.
	s.MustExecute("CREATE TABLE f (k FLOAT, note VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("INSERT INTO f VALUES (1.0, 'float-one'), (2.5, 'other')")
	res = s.MustExecute("SELECT a.tag, f.note FROM a JOIN f ON a.k = f.k")
	if len(res.Rows) != 1 || res.Rows[0][1].S != "float-one" {
		t.Fatalf("INTEGER vs FLOAT join = %v", res.Rows)
	}
	// NULL keys never join.
	s.MustExecute("INSERT INTO a VALUES (NULL, 'null-key')")
	s.MustExecute("INSERT INTO f VALUES (NULL, 'null-key')")
	res = s.MustExecute("SELECT a.tag, f.note FROM a JOIN f ON a.k = f.k")
	if len(res.Rows) != 1 {
		t.Fatalf("NULL keys joined: %v", res.Rows)
	}
}

// TestConcurrentScansAndDML hammers the vectorized scan path from several
// sessions while another session inserts, deletes, and moves out. Run under
// -race via make check.
func TestConcurrentScansAndDML(t *testing.T) {
	c := testCluster(t, 4)
	w := sess(t, c, 0)
	w.MustExecute("CREATE TABLE t (id INTEGER, grp INTEGER) SEGMENTED BY HASH(id)")
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("(%d, %d)", i, i%10))
	}
	w.MustExecute("INSERT INTO t VALUES " + strings.Join(vals, ", "))
	if err := c.Moveout(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			rs, err := c.Connect(node)
			if err != nil {
				t.Error(err)
				return
			}
			defer rs.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := rs.Execute("SELECT id FROM t WHERE grp = 3"); err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				if _, err := rs.Execute("SELECT COUNT(*) FROM t WHERE id < 500"); err != nil {
					t.Errorf("reader count: %v", err)
					return
				}
			}
		}(r % c.NumNodes())
	}
	for i := 0; i < 30; i++ {
		w.MustExecute(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", 1000+i, i%10))
		w.MustExecute(fmt.Sprintf("DELETE FROM t WHERE id = %d", i*3))
		if i%10 == 0 {
			if err := c.Moveout(); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}
