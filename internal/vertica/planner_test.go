package vertica

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
	"vsfabric/internal/workload"
)

// prunableTable creates table pz whose ROS containers have disjoint id
// ranges, so an id predicate can prune whole containers via zone maps.
func prunableTable(t *testing.T, s *Session, c *Cluster) {
	t.Helper()
	s.MustExecute("CREATE TABLE pz (id INTEGER, val FLOAT) SEGMENTED BY HASH(id)")
	for lo := 0; lo < 300; lo += 100 {
		var vals []string
		for i := lo; i < lo+100; i++ {
			vals = append(vals, fmt.Sprintf("(%d, %d.5)", i, i))
		}
		s.MustExecute("INSERT INTO pz VALUES " + strings.Join(vals, ", "))
		if err := c.Moveout(); err != nil {
			t.Fatal(err)
		}
	}
}

func sameResults(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows vs %d\n got %v\nwant %v", label, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range got.Rows {
		if len(got.Rows[i]) != len(want.Rows[i]) {
			t.Fatalf("%s row %d: width %d vs %d", label, i, len(got.Rows[i]), len(want.Rows[i]))
		}
		for j := range got.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Null != w.Null || (!g.Null && types.Compare(g, w) != 0) {
				t.Fatalf("%s row %d col %d: %v vs %v", label, i, j, got.Rows[i], want.Rows[i])
			}
		}
	}
}

func TestExplainScanPruning(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s, c)

	res := s.MustExecute("EXPLAIN SELECT val FROM pz WHERE id >= 200")
	wantCols := []string{"step", "operator", "target", "est_rows", "containers", "pruned", "detail"}
	for i, w := range wantCols {
		if res.Schema.Cols[i].Name != w {
			t.Fatalf("explain col %d = %q, want %q", i, res.Schema.Cols[i].Name, w)
		}
	}
	if len(res.Rows) != 1 {
		t.Fatalf("explain rows: %v", res.Rows)
	}
	scan := res.Rows[0]
	if scan[1].S != "scan" || scan[2].S != "pz" {
		t.Fatalf("scan row: %v", scan)
	}
	if scan[4].I == 0 {
		t.Fatal("explain reports zero containers on a moved-out table")
	}
	// Containers holding ids 0..99 and 100..199 are provably excluded.
	if scan[5].I == 0 {
		t.Fatalf("explain pruned no containers: %v", scan)
	}
	if scan[5].I >= scan[4].I {
		t.Fatalf("pruned %d of %d containers; the 200..299 containers must survive", scan[5].I, scan[4].I)
	}
	if !strings.Contains(scan[6].S, "zone maps prune") {
		t.Fatalf("scan detail %q missing zone-map note", scan[6].S)
	}

	// EXPLAIN does not execute: no query_plans record for the SELECT itself.
	res = s.MustExecute("EXPLAIN SELECT COUNT(*) FROM pz")
	if len(res.Rows) != 1 || !strings.Contains(res.Rows[0][6].S, "count pushdown") {
		t.Fatalf("COUNT(*) explain: %v", res.Rows)
	}

	res = s.MustExecute("EXPLAIN SELECT id FROM pz WHERE id > 5 GROUP BY id ORDER BY id LIMIT 3")
	var ops []string
	for _, r := range res.Rows {
		ops = append(ops, r[1].S)
	}
	if got := strings.Join(ops, ","); got != "scan,group-by,sort,limit" {
		t.Fatalf("operators = %s", got)
	}
}

func TestExplainJoinOrder(t *testing.T) {
	c := testCluster(t, 2)
	s := sess(t, c, 0)
	sizes := map[string]int{"big": 400, "mid": 60, "small": 8}
	for name, n := range sizes {
		s.MustExecute(fmt.Sprintf("CREATE TABLE %s (id INTEGER, tag VARCHAR) SEGMENTED BY HASH(id)", name))
		var vals []string
		for i := 0; i < n; i++ {
			vals = append(vals, fmt.Sprintf("(%d, '%s%d')", i, name, i))
		}
		s.MustExecute(fmt.Sprintf("INSERT INTO %s VALUES %s", name, strings.Join(vals, ", ")))
	}
	if err := c.Moveout(); err != nil {
		t.Fatal(err)
	}

	// Written mid-first; the planner must reorder to join small before mid.
	q := "SELECT big.tag FROM big JOIN mid ON big.id = mid.id JOIN small ON big.id = small.id"
	res := s.MustExecute("EXPLAIN " + q)
	var joins []string
	for _, r := range res.Rows {
		if r[1].S == "join" {
			joins = append(joins, r[2].S)
		}
	}
	if len(joins) != 2 || joins[0] != "small" || joins[1] != "mid" {
		t.Fatalf("join order = %v, want [small mid]", joins)
	}
	for _, r := range res.Rows {
		if r[1].S == "join" && !strings.Contains(r[6].S, "build right side") {
			t.Fatalf("join against a smaller right side should build right: %v", r)
		}
	}

	// The executed plan must agree with EXPLAIN's order.
	s.MustExecute(q)
	plans := s.MustExecute("SELECT * FROM v_monitor.query_plans")
	last := plans.Rows[len(plans.Rows)-1]
	order := last[3].S
	if order != "big JOIN small JOIN mid" {
		t.Fatalf("executed join order = %q", order)
	}
}

func TestQueryPlansMonitor(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s, c)

	q := "SELECT val FROM pz WHERE id >= 200"
	got := s.MustExecute(q)
	plans := s.MustExecute("SELECT * FROM v_monitor.query_plans")
	wantCols := []string{"plan_id", "query", "anchor_table", "join_order", "estimated_rows",
		"actual_rows", "containers_scanned", "containers_pruned", "pushdown", "vectorized", "epoch"}
	for i, w := range wantCols {
		if plans.Schema.Cols[i].Name != w {
			t.Fatalf("query_plans col %d = %q, want %q", i, plans.Schema.Cols[i].Name, w)
		}
	}
	var rec types.Row
	for _, r := range plans.Rows {
		if r[1].S == q {
			rec = r
		}
	}
	if rec == nil {
		t.Fatalf("no query_plans record for %q: %v", q, plans.Rows)
	}
	if rec[2].S != "pz" {
		t.Fatalf("anchor_table = %q", rec[2].S)
	}
	if rec[5].I != int64(len(got.Rows)) {
		t.Fatalf("actual_rows = %d, want %d", rec[5].I, len(got.Rows))
	}
	if rec[7].I == 0 {
		t.Fatal("containers_pruned = 0; zone maps should have pruned the low containers")
	}
	if rec[6].I == 0 {
		t.Fatal("containers_scanned = 0")
	}
	if !rec[9].B {
		t.Fatal("vectorized = false on the vectorized path")
	}

	// COUNT(*) pushdown and GROUP BY pushdown are labeled.
	s.MustExecute("SELECT COUNT(*) FROM pz")
	s.MustExecute("SELECT id, COUNT(*) FROM pz GROUP BY id LIMIT 1")
	plans = s.MustExecute("SELECT * FROM v_monitor.query_plans")
	var sawCount, sawGroupBy bool
	for _, r := range plans.Rows {
		switch r[8].S {
		case "count":
			sawCount = true
		case "group-by":
			sawGroupBy = true
		}
	}
	if !sawCount || !sawGroupBy {
		t.Fatalf("pushdown labels missing: count=%v group-by=%v", sawCount, sawGroupBy)
	}
}

// TestZoneMapPruningAblation is the acceptance check: results are identical
// with pruning on and off; only container decode counts change.
func TestZoneMapPruningAblation(t *testing.T) {
	run := func(noPrune bool) (*Cluster, *Session) {
		c, err := NewCluster(Config{Nodes: 3, NoZoneMapPruning: noPrune})
		if err != nil {
			t.Fatal(err)
		}
		s, err := c.Connect(0)
		if err != nil {
			t.Fatal(err)
		}
		prunableTable(t, s, c)
		return c, s
	}
	_, on := run(false)
	_, off := run(true)
	defer on.Close()
	defer off.Close()

	queries := []string{
		"SELECT val FROM pz WHERE id >= 200 ORDER BY val",
		"SELECT COUNT(*) FROM pz WHERE id < 100",
		"SELECT id, SUM(val) FROM pz WHERE id >= 250 GROUP BY id ORDER BY id",
		"SELECT val FROM pz WHERE id = 150",
		"SELECT val FROM pz WHERE id > 1000",
	}
	for _, q := range queries {
		sameResults(t, q, on.MustExecute(q), off.MustExecute(q))
	}

	check := func(s *Session, wantPruned bool) {
		t.Helper()
		plans := s.MustExecute("SELECT containers_pruned FROM v_monitor.query_plans")
		var pruned int64
		for _, r := range plans.Rows {
			pruned += r[0].I
		}
		if wantPruned && pruned == 0 {
			t.Error("pruning enabled but containers_pruned = 0 across all plans")
		}
		if !wantPruned && pruned != 0 {
			t.Errorf("pruning disabled but containers_pruned = %d", pruned)
		}
	}
	check(on, true)
	check(off, false)
}

func TestProfileGroupBy(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	prunableTable(t, s, c)

	res := s.MustExecute("PROFILE SELECT id, COUNT(*), SUM(val) FROM pz GROUP BY id")
	var grp types.Row
	for _, r := range res.Rows {
		if r[0].S == "group-by" {
			grp = r
		}
	}
	if grp == nil {
		t.Fatalf("no group-by operator row: %v", res.Rows)
	}
	if !strings.Contains(grp[6].S, "vectorized hash aggregation") {
		t.Fatalf("group-by detail = %q", grp[6].S)
	}
	if grp[1].I != 300 || grp[2].I != 300 {
		t.Fatalf("group-by rows_in=%d rows_out=%d, want 300/300", grp[1].I, grp[2].I)
	}
	if grp[3].I != 300 || grp[4].I != 0 {
		t.Fatalf("group-by vectorized_rows=%d residual_rows=%d", grp[3].I, grp[4].I)
	}

	// An aggregate the kernels can't run (expression argument) falls back and
	// says so.
	res = s.MustExecute("PROFILE SELECT id, SUM(val + 1.0) FROM pz GROUP BY id")
	grp = nil
	for _, r := range res.Rows {
		if r[0].S == "group-by" {
			grp = r
		}
	}
	if grp == nil || !strings.Contains(grp[6].S, "row-at-a-time fallback") {
		t.Fatalf("fallback group-by row = %v", grp)
	}
}

// TestAggEquivalenceProperty is the seeded equivalence suite for
// aggregation: the production path (vectorized hash aggregation where
// eligible) must return exactly what the row-at-a-time reference returns —
// NULL group keys, empty groups, mixed INT/FLOAT aggregates.
func TestAggEquivalenceProperty(t *testing.T) {
	queries := []string{
		// NULL group keys and mixed INT/FLOAT aggregates.
		"SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val), AVG(val) FROM t GROUP BY grp ORDER BY grp",
		"SELECT grp, SUM(id), MIN(id), MAX(id), AVG(id) FROM t GROUP BY grp ORDER BY grp",
		// Multi-column (generic) group keys.
		"SELECT grp, name, COUNT(*) FROM t GROUP BY grp, name ORDER BY grp, name",
		// Aggregates of a nullable column: COUNT(col) skips NULLs.
		"SELECT grp, COUNT(val) FROM t GROUP BY grp ORDER BY grp",
		// Empty input: zero groups with GROUP BY, one NULL-ish row without.
		"SELECT grp, COUNT(*) FROM t WHERE id < 0 GROUP BY grp",
		"SELECT COUNT(*), SUM(val), MIN(name) FROM t WHERE id < 0",
		// Global aggregates over everything.
		"SELECT COUNT(*), COUNT(grp), SUM(id), AVG(val) FROM t",
		// Predicate + aggregation (exercises pruning + filtering upstream).
		"SELECT grp, SUM(val) FROM t WHERE id >= 300 GROUP BY grp ORDER BY grp",
		"SELECT name, MIN(val), MAX(val) FROM t WHERE grp IS NOT NULL GROUP BY name ORDER BY name",
		"SELECT grp, COUNT(*) FROM t GROUP BY grp ORDER BY grp LIMIT 3",
		// Group discovery order without ORDER BY.
		"SELECT grp, SUM(val) FROM t GROUP BY grp",
	}
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	buildRandomTable(t, s, c, rand.New(rand.NewSource(7)), 600)
	for _, q := range queries {
		sameResults(t, q, s.MustExecute(q), mustRefSelect(t, s, q))
	}
}

// TestJoinEquivalenceProperty diffs the batch join pipeline against the
// row-at-a-time reference, row order included: duplicate and NULL keys,
// multi-way joins (with a later step building its hash table on the
// accumulated result), views and system tables as join inputs, INTEGER =
// FLOAT keys, a right side spread over several ROS containers plus the WOS,
// residual WHERE clauses (HASH ones included), and ORDER BY / LIMIT.
func TestJoinEquivalenceProperty(t *testing.T) {
	queries := []string{
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid ORDER BY o.id, c.name",
		// Duplicate keys on both sides: full cross-product per key.
		"SELECT o.id, x.tag FROM o JOIN x ON o.cid = x.cid ORDER BY o.id, x.tag",
		// Three-way join with a post-join residual WHERE.
		"SELECT o.id, c.name, x.tag FROM o JOIN c ON o.cid = c.cid JOIN x ON o.cid = x.cid WHERE o.id < 150 ORDER BY o.id, x.tag",
		// Join feeding aggregation.
		"SELECT c.name, COUNT(*) FROM o JOIN c ON o.cid = c.cid GROUP BY c.name ORDER BY c.name",
		// Pipeline order, unsorted: left-major, right matches in scan order.
		"SELECT * FROM o JOIN x ON o.cid = x.cid",
		"SELECT o.id, x.tag, c.name FROM o JOIN x ON x.cid = o.cid JOIN c ON c.cid = o.cid",
		// c is smallest: both steps build on the left, the second on the
		// accumulated c JOIN o result.
		"SELECT * FROM c JOIN o ON c.cid = o.cid JOIN big ON o.id = big.oid",
		"SELECT c.name, o.id, big.w FROM c JOIN o ON c.cid = o.cid JOIN big ON o.id = big.oid WHERE big.w > 10.5 AND c.name <> 'cust3'",
		// A view (with computed and function columns) and system tables as
		// join inputs, on either side.
		"SELECT o.id, cv.name, cv.cid2, cv.ver FROM o JOIN cv ON o.cid = cv.cid",
		"SELECT cv.name, o.id FROM cv JOIN o ON cv.cid = o.cid WHERE o.id >= 100",
		"SELECT o.id, cv.name FROM o JOIN cv ON o.id = cv.cid2",
		"SELECT tn.label, vt.is_segmented, vt.segment_expression FROM tn JOIN v_catalog.tables vt ON tn.tname = vt.table_name",
		"SELECT vc.table_name, vc.column_name, tn.label FROM v_catalog.columns vc JOIN tn ON vc.table_name = tn.tname",
		// INTEGER = FLOAT keys: integral floats join, 2.5 never does.
		"SELECT o.id, f.note FROM o JOIN f ON o.cid = f.k",
		"SELECT f.note, o.id FROM f JOIN o ON f.k = o.cid",
		// Residual WHERE over the joined batch: kernels, interpreted
		// conjuncts, and HASH calls (joined batches carry no hash vector).
		"SELECT o.id, x.tag FROM o JOIN x ON o.cid = x.cid WHERE x.tag >= 'tag3' AND MOD(o.id, 3) = 0",
		"SELECT o.id, x.tag FROM o JOIN x ON o.cid = x.cid WHERE HASH(o.id) < 2000000000",
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid WHERE HASH(*) >= 1000000000 AND o.id < 200",
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid WHERE HASH(*) < 1000000000 OR o.id < 10",
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid WHERE c.name IS NULL OR o.cid IS NULL",
		// ORDER BY and LIMIT over a join.
		"SELECT o.id, x.tag FROM o JOIN x ON o.cid = x.cid ORDER BY x.tag DESC, o.id LIMIT 25",
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid LIMIT 17",
		"SELECT o.id, c.name FROM o JOIN c ON o.cid = c.cid LIMIT 0",
	}
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	rng := rand.New(rand.NewSource(11))
	s.MustExecute("CREATE TABLE o (id INTEGER, cid INTEGER) SEGMENTED BY HASH(id)")
	s.MustExecute("CREATE TABLE c (cid INTEGER, name VARCHAR) SEGMENTED BY HASH(cid)")
	s.MustExecute("CREATE TABLE x (cid INTEGER, tag VARCHAR) SEGMENTED BY HASH(cid)")
	s.MustExecute("CREATE TABLE big (oid INTEGER, w FLOAT) SEGMENTED BY HASH(oid)")
	s.MustExecute("CREATE TABLE f (k FLOAT, note VARCHAR) SEGMENTED BY HASH(k)")
	s.MustExecute("CREATE TABLE tn (tname VARCHAR, label VARCHAR)")
	var ov, cv, bv []string
	for i := 0; i < 300; i++ {
		cid := fmt.Sprintf("%d", rng.Intn(20))
		if rng.Intn(15) == 0 {
			cid = "NULL"
		}
		ov = append(ov, fmt.Sprintf("(%d, %s)", i, cid))
	}
	for i := 0; i < 20; i++ {
		cv = append(cv, fmt.Sprintf("(%d, 'cust%d')", i, i))
	}
	cv = append(cv, "(NULL, 'null-cust')", "(7, NULL)")
	// big holds several rows per o.id, so it outsizes the accumulated
	// c JOIN o result and the second step builds on the left.
	for i := 0; i < 900; i++ {
		bv = append(bv, fmt.Sprintf("(%d, %d.5)", rng.Intn(320), rng.Intn(40)))
	}
	s.MustExecute("INSERT INTO o VALUES " + strings.Join(ov, ", "))
	s.MustExecute("INSERT INTO c VALUES " + strings.Join(cv, ", "))
	s.MustExecute("INSERT INTO big VALUES " + strings.Join(bv, ", "))
	s.MustExecute("INSERT INTO f VALUES (1.0, 'one'), (2.5, 'two-and-a-half'), (3, 'three'), (NULL, 'null'), (19.0, 'nineteen'), (-4.0, 'neg')")
	s.MustExecute("INSERT INTO tn VALUES ('o', 'orders'), ('x', 'tags'), ('missing', 'none'), ('c', 'customers')")
	s.MustExecute("CREATE VIEW cv AS SELECT cid, name, cid * 2 AS cid2, VERSION() AS ver FROM c WHERE cid < 15")
	// x, a join's right side, spans three ROS containers per node plus WOS
	// rows, with deletes on both tiers; duplicate cids give several tags
	// per key.
	tag := 0
	for part := 0; part < 4; part++ {
		var xv []string
		for i := 0; i < 15; i++ {
			xv = append(xv, fmt.Sprintf("(%d, 'tag%d')", rng.Intn(20), tag))
			tag++
		}
		s.MustExecute("INSERT INTO x VALUES " + strings.Join(xv, ", "))
		if part < 3 {
			if err := c.Moveout(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.MustExecute("DELETE FROM x WHERE tag = 'tag5' OR tag = 'tag50'")
	xt, _ := c.Catalog().Table("x")
	if n := len(xt.Stores[0].Containers()); n < 2 {
		t.Fatalf("x has %d ROS containers on node 0, want several", n)
	}
	st, err := vsql.Parse("SELECT * FROM c JOIN o ON c.cid = o.cid JOIN big ON o.id = big.oid")
	if err != nil {
		t.Fatal(err)
	}
	if steps := s.planJoins(st.(*vsql.Select)).steps; !steps[0].buildLeft || !steps[1].buildLeft {
		t.Fatalf("c JOIN o JOIN big: build left = %v, %v; want both", steps[0].buildLeft, steps[1].buildLeft)
	}
	for _, q := range queries {
		got := s.MustExecute(q)
		if len(got.Rows) == 0 && !strings.HasSuffix(q, "LIMIT 0") {
			t.Fatalf("%s: empty result, data generator broken", q)
		}
		sameResults(t, q, got, mustRefSelect(t, s, q))
	}
	// A residual over a column no input has is an error, never a panic or
	// a silently always-true HASH bound.
	for _, q := range []string{
		"SELECT o.id FROM o JOIN c ON o.cid = c.cid WHERE HASH(o.nosuch) < 100",
		"SELECT o.id FROM o JOIN c ON o.cid = c.cid WHERE HASH(o.nosuch) >= -1",
		"SELECT o.id FROM o JOIN c ON o.cid = c.cid WHERE o.nosuch = 1",
	} {
		if _, err := s.Execute(q); err == nil || !strings.Contains(err.Error(), "nosuch") {
			t.Fatalf("%s: err = %v, want an unknown-column error", q, err)
		}
	}
}

// TestStarWorkloadMatchesReference is the aggregation/join bench gate: every
// query cmd/aggbench times, over the same star-schema data at smoke scale
// (50k fact rows), must match the row-at-a-time reference cell by cell —
// row count, schema width, values and NULLs — and must not come back empty.
func TestStarWorkloadMatchesReference(t *testing.T) {
	c := testCluster(t, 4)
	s := sess(t, c, 0)
	for _, q := range workload.StarDDL {
		s.MustExecute(q)
	}
	fact, dim, tags := workload.StarCSV(50_000)
	for _, load := range []struct{ table, csv string }{{"fact", fact}, {"dim", dim}, {"tags", tags}} {
		if _, err := s.CopyFrom("COPY "+load.table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(load.csv)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range append(append([]workload.StarQuery(nil), workload.StarAggQueries...), workload.StarJoinQueries...) {
		got, want := s.MustExecute(q.Query), mustRefSelect(t, s, q.Query)
		if len(got.Schema.Cols) != len(want.Schema.Cols) {
			t.Fatalf("%s: schema width %d, reference %d", q.Name, len(got.Schema.Cols), len(want.Schema.Cols))
		}
		sameResults(t, q.Name, got, want)
		if len(got.Rows) == 0 {
			t.Fatalf("%s: zero-row result on the bench workload", q.Name)
		}
	}
}
