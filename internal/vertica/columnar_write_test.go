package vertica

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vsfabric/internal/avro"
	"vsfabric/internal/catalog"
	"vsfabric/internal/storage"
	"vsfabric/internal/types"
	"vsfabric/internal/vhash"
	"vsfabric/internal/wal"
)

// The tests in this file hold the columnar write path (COPY → column
// vectors → one hash per row → per-store gather → ROS container or WOS,
// plus the WAL record) to a row-at-a-time oracle: vhash.HashRow per row,
// placement by the table's ring, storage.EncodeRows for the log.

var eqSchema = types.NewSchema(
	types.Column{Name: "id", T: types.Int64},
	types.Column{Name: "x", T: types.Float64},
	types.Column{Name: "s", T: types.Varchar},
	types.Column{Name: "b", T: types.Bool},
)

// eqRows generates rows covering NULLs in every column, integral and
// non-integral floats, empty strings and both booleans. csvSafe keeps
// strings to what the CSV format can carry (no delimiters, NULL-free).
func eqRows(rng *rand.Rand, n int, csvSafe bool) []types.Row {
	rows := make([]types.Row, n)
	for i := range rows {
		r := types.Row{
			types.IntValue(rng.Int63n(1000) - 500),
			types.FloatValue(float64(rng.Intn(50))),
			types.StringValue(fmt.Sprintf("v%d", rng.Intn(40))),
			types.BoolValue(rng.Intn(2) == 0),
		}
		if rng.Intn(2) == 0 {
			r[1] = types.FloatValue(rng.NormFloat64() * 1e3)
		}
		switch rng.Intn(6) {
		case 0:
			r[2] = types.StringValue("")
		case 1:
			if !csvSafe {
				r[2] = types.StringValue("héllo, \"wörld\"")
			}
		}
		for j := range r {
			if rng.Intn(8) == 0 && !(csvSafe && j == 2) {
				r[j] = types.NullValue(eqSchema.Cols[j].T)
			}
		}
		rows[i] = r
	}
	return rows
}

func avroStream(t *testing.T, rows []types.Row) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := avro.NewWriter(&buf, avro.FromTypes(eqSchema), avro.CodecDeflate, 7)
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

func csvLine(r types.Row) string {
	parts := make([]string, len(r))
	for i, v := range r {
		if !v.Null {
			parts[i] = v.String()
		}
	}
	return strings.Join(parts, ",")
}

// oraclePlacement routes rows one at a time the way the row path did: each
// store's expected rows, in allStores order, skipping stores on nodes that
// are down.
func oraclePlacement(c *Cluster, tbl *catalog.Table, rows []types.Row) [][]types.Row {
	stores := allStores(tbl)
	pos := make(map[*storage.Store]int, len(stores))
	for i, st := range stores {
		pos[st] = i
	}
	out := make([][]types.Row, len(stores))
	put := func(st *storage.Store, nodeID int, r types.Row) {
		if c.nodeAcceptsWrites(nodeID) {
			out[pos[st]] = append(out[pos[st]], r)
		}
	}
	for _, r := range rows {
		if !tbl.Def.Segmented {
			for i, st := range tbl.Stores {
				put(st, tbl.Ring[i], r)
			}
			continue
		}
		home := tbl.HomeNode(vhash.HashRow(r, tbl.SegIdx))
		put(tbl.Stores[home], tbl.Ring[home], r)
		for k := range tbl.Buddies {
			host := (home + k + 1) % tbl.NumNodes()
			put(tbl.Buddies[k][host], tbl.Ring[host], r)
		}
	}
	return out
}

// storeContents returns every store's visible rows in scan order, in
// allStores order, checking each stored hash against vhash.HashRow.
func storeContents(t *testing.T, c *Cluster, tbl *catalog.Table) [][]types.Row {
	t.Helper()
	vis := storage.Visibility{Epoch: c.LastEpoch()}
	var out [][]types.Row
	for _, st := range allStores(tbl) {
		var rows []types.Row
		st.ScanBatches(vis, fullRing(), func(b *storage.Batch) bool {
			for _, i := range b.Sel {
				r := b.Row(int(i), nil)
				if got, want := b.Hashes[i], vhash.HashRow(r, tbl.SegIdx); got != want {
					t.Errorf("stored hash %#x, HashRow %#x for %v", got, want, r)
				}
				rows = append(rows, r)
			}
			return true
		})
		out = append(out, rows)
	}
	return out
}

func sameRowSeqs(t *testing.T, what string, got, want [][]types.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stores, want %d", what, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: store %d holds %d rows, want %d", what, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if !identicalRows(got[i][j], want[i][j]) {
				t.Fatalf("%s: store %d row %d = %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// identicalRows compares rows value for value, floats bit for bit.
func identicalRows(a, b types.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Null != y.Null || x.T != y.T {
			return false
		}
		if !x.Null && (x.I != y.I || math.Float64bits(x.F) != math.Float64bits(y.F) || x.S != y.S || x.B != y.B) {
			return false
		}
	}
	return true
}

// TestColumnarCopyMatchesRowOracle loads the same rows by Avro and by CSV
// COPY into segmented (one and two hash columns), unsegmented and K-safe
// tables, DIRECT and through the WOS, with and without a DOWN node, and
// checks every store holds exactly the rows, in the order, that the
// row-at-a-time routing places there.
func TestColumnarCopyMatchesRowOracle(t *testing.T) {
	layouts := []struct {
		name, ddl string
		ksafe     int
	}{
		{"seg", "SEGMENTED BY HASH(id)", 0},
		{"seg2", "SEGMENTED BY HASH(s, x)", 0},
		{"unseg", "UNSEGMENTED ALL NODES", 0},
		{"ksafe1", "SEGMENTED BY HASH(id) KSAFE 1", 1},
	}
	rng := rand.New(rand.NewSource(5))
	for _, lay := range layouts {
		for _, format := range []string{"avro", "csv"} {
			for _, direct := range []bool{true, false} {
				for _, down := range []bool{false, true} {
					if down && lay.ksafe == 0 && lay.name != "unseg" {
						continue // a down node leaves a K-safety-0 segment unwritable
					}
					name := fmt.Sprintf("%s/%s/direct=%v/down=%v", lay.name, format, direct, down)
					t.Run(name, func(t *testing.T) {
						c, err := NewCluster(Config{Nodes: 4, KSafety: lay.ksafe})
						if err != nil {
							t.Fatal(err)
						}
						s := sess(t, c, 0)
						s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT, s VARCHAR, b BOOLEAN) " + lay.ddl)
						if down {
							c.Node(2).SetDown(true)
						}
						rows := eqRows(rng, 300, format == "csv")
						sql := "COPY t FROM STDIN"
						var data []byte
						if format == "avro" {
							sql += " FORMAT AVRO"
							data = avroStream(t, rows)
						} else {
							var lines []string
							for _, r := range rows {
								lines = append(lines, csvLine(r))
							}
							data = []byte(strings.Join(lines, "\n") + "\n")
						}
						if direct {
							sql += " DIRECT"
						}
						res, err := s.CopyFrom(sql, bytes.NewReader(data))
						if err != nil {
							t.Fatal(err)
						}
						if res.Copy.Loaded != int64(len(rows)) {
							t.Fatalf("loaded %d rows, want %d", res.Copy.Loaded, len(rows))
						}
						tbl, _ := c.Catalog().Table("t")
						sameRowSeqs(t, name, storeContents(t, c, tbl), oraclePlacement(c, tbl, rows))
						for _, st := range allStores(tbl) {
							if !st.Stale() && st.ContainerCount() > 0 != direct {
								t.Errorf("direct=%v but a store has %d containers", direct, st.ContainerCount())
							}
						}
						if down {
							stale := 0
							for i, st := range tbl.Stores {
								if tbl.Ring[i] == 2 && !st.Stale() {
									t.Error("store on the down node not marked stale")
								}
								if st.Stale() {
									stale++
								}
							}
							if stale == 0 {
								t.Error("no store marked stale")
							}
						}
					})
				}
			}
		}
	}
}

// TestColumnarCopyCSVRejects checks rejected CSV lines are skipped (and
// counted) without disturbing the placement of the accepted ones, and that
// exceeding REJECTMAX loads nothing.
func TestColumnarCopyCSVRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := eqRows(rng, 200, true)
	var lines []string
	for i, r := range rows {
		lines = append(lines, csvLine(r))
		if i%50 == 0 {
			lines = append(lines, "not-a-number,1.0,x,true", "1,2")
		}
	}
	data := strings.Join(lines, "\n") + "\n"
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT, s VARCHAR, b BOOLEAN) SEGMENTED BY HASH(id)")
	if _, err := s.CopyFrom("COPY t FROM STDIN DIRECT REJECTMAX 7", strings.NewReader(data)); err == nil {
		t.Fatal("8 rejects with REJECTMAX 7 should fail the load")
	}
	if got := mustI(t, s.MustExecute("SELECT COUNT(*) FROM t")); got != 0 {
		t.Fatalf("failed load left %d rows", got)
	}
	res, err := s.CopyFrom("COPY t FROM STDIN DIRECT REJECTMAX 8", strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if res.Copy.Loaded != int64(len(rows)) || res.Copy.Rejected != 8 {
		t.Fatalf("loaded %d rejected %d, want %d and 8", res.Copy.Loaded, res.Copy.Rejected, len(rows))
	}
	tbl, _ := c.Catalog().Table("t")
	sameRowSeqs(t, "csv rejects", storeContents(t, c, tbl), oraclePlacement(c, tbl, rows))
}

// TestColumnarWALMatchesEncodeRows checks the insert records COPY and
// INSERT log are byte-equal to storage.EncodeRows of the same rows, and
// that crash replay of those records rebuilds every store exactly.
func TestColumnarWALMatchesEncodeRows(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(Config{Nodes: 3, KSafety: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE t (id INTEGER, x FLOAT, s VARCHAR, b BOOLEAN) SEGMENTED BY HASH(id) KSAFE 1")
	rng := rand.New(rand.NewSource(11))
	direct := eqRows(rng, 250, false)
	wos := eqRows(rng, 120, false)
	if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(avroStream(t, direct))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CopyFrom("COPY t FROM STDIN FORMAT AVRO", bytes.NewReader(avroStream(t, wos))); err != nil {
		t.Fatal(err)
	}
	tbl, _ := c.Catalog().Table("t")
	want := storeContents(t, c, tbl)
	s.Close()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := wal.ReadAll(filepath.Join(dir, "wal-1.log"))
	if err != nil {
		t.Fatal(err)
	}
	var inserts []wal.Record
	for _, r := range recs {
		if r.Type == wal.RecInsert && r.Table == "t" {
			inserts = append(inserts, r)
		}
	}
	if len(inserts) != 2 {
		t.Fatalf("%d insert records for t, want 2", len(inserts))
	}
	for i, rows := range [][]types.Row{direct, wos} {
		oracle, err := storage.EncodeRows(eqSchema, rows)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(inserts[i].Rows, oracle) {
			t.Errorf("insert record %d: payload differs from EncodeRows (%d vs %d bytes)", i, len(inserts[i].Rows), len(oracle))
		}
		if inserts[i].Direct != (i == 0) {
			t.Errorf("insert record %d: Direct = %v", i, inserts[i].Direct)
		}
	}

	c2, err := NewCluster(Config{Nodes: 3, KSafety: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	tbl2, _ := c2.Catalog().Table("t")
	sameRowSeqs(t, "replay", storeContents(t, c2, tbl2), want)
}

// TestColumnarInsertSelect covers both halves of INSERT ... SELECT: a
// column-form scan gathered straight into the target, an INT→FLOAT
// coercion, and a row-shaped SELECT (WHERE plus ORDER BY).
func TestColumnarInsertSelect(t *testing.T) {
	c := testCluster(t, 3)
	s := sess(t, c, 0)
	s.MustExecute("CREATE TABLE src (id INTEGER, x FLOAT, s VARCHAR, b BOOLEAN) SEGMENTED BY HASH(id)")
	rows := eqRows(rand.New(rand.NewSource(13)), 400, false)
	if _, err := s.CopyFrom("COPY src FROM STDIN FORMAT AVRO DIRECT", bytes.NewReader(avroStream(t, rows))); err != nil {
		t.Fatal(err)
	}
	s.MustExecute("INSERT INTO src VALUES (9999, NULL, 'wos', TRUE)")
	rows = append(rows, types.Row{types.IntValue(9999), types.NullValue(types.Float64), types.StringValue("wos"), types.BoolValue(true)})

	// Same types, segmented differently: the target rehashes every row.
	s.MustExecute("CREATE TABLE dst (id INTEGER, x FLOAT, s VARCHAR, b BOOLEAN) SEGMENTED BY HASH(s)")
	if got := s.MustExecute("INSERT INTO dst SELECT * FROM src").RowsAffected; got != int64(len(rows)) {
		t.Fatalf("INSERT SELECT affected %d rows, want %d", got, len(rows))
	}
	// Scan order across source containers is not input order, so each
	// target store is compared as a multiset against the oracle's routing
	// of the scanned rows.
	src, _ := c.Catalog().Table("src")
	var scanned []types.Row
	for _, seq := range storeContents(t, c, src) {
		scanned = append(scanned, seq...)
	}
	dst, _ := c.Catalog().Table("dst")
	got, want := storeContents(t, c, dst), oraclePlacement(c, dst, scanned)
	for i := range want {
		if a, b := rowKeys(got[i]), rowKeys(want[i]); a != b {
			t.Fatalf("dst store %d: %d rows differ from the oracle's %d", i, len(got[i]), len(want[i]))
		}
	}

	// INT → FLOAT coercion: the column-form result does not match the
	// target's types, so rows are coerced one by one.
	s.MustExecute("CREATE TABLE f (v FLOAT)")
	s.MustExecute("INSERT INTO f SELECT id FROM src WHERE id = 9999")
	if res := s.MustExecute("SELECT v FROM f"); len(res.Rows) != 1 || res.Rows[0][0].T != types.Float64 || res.Rows[0][0].F != 9999 {
		t.Fatalf("coerced insert = %v", res.Rows)
	}

	// A row-shaped SELECT (ORDER BY leaves the column path).
	s.MustExecute("CREATE TABLE o (id INTEGER, s VARCHAR)")
	s.MustExecute("INSERT INTO o SELECT id, s FROM src WHERE id > 0 ORDER BY id")
	wantN := int64(0)
	for _, r := range rows {
		if !r[0].Null && r[0].I > 0 {
			wantN++
		}
	}
	if got := mustI(t, s.MustExecute("SELECT COUNT(*) FROM o")); got != wantN {
		t.Fatalf("row-shaped INSERT SELECT loaded %d rows, want %d", got, wantN)
	}
	if a, b := mustI(t, s.MustExecute("SELECT SUM(id) FROM o")), mustI(t, s.MustExecute("SELECT SUM(id) FROM src WHERE id > 0")); a != b {
		t.Fatalf("SUM(id) = %d, want %d", a, b)
	}
}

// rowKeys renders rows as one sorted string, for multiset comparison.
func rowKeys(rows []types.Row) string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%v", r)
	}
	sort.Strings(out)
	return strings.Join(out, ";")
}
