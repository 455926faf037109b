package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"vsfabric/internal/obs"
	"vsfabric/internal/types"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 1000, true}, // rank 990 leaves exactly 10 above
		{99, 999, false}, // rank 990 leaves 9
		{99.9, 10000, true},
		{99.9, 9999, false},
		{50, 20, true},
		{50, 19, false},
		{90, 100, true},
		{95, 100, false},
		{50, 0, false},
	}
	for _, c := range cases {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(p%g, n=%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	for n, want := range map[int]float64{20: 50, 40: 75, 100: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got, ok := highestPercentile(n); !ok || got != want {
			t.Errorf("highestPercentile(%d) = %g, %v; want %g", n, got, ok, want)
		}
	}
	if p, ok := highestPercentile(19); ok {
		t.Errorf("highestPercentile(19) = %g, want none: no percentile leaves 10 samples beyond", p)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted input
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %g, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 1,3,5 = %g, want 3", got)
	}
}

func TestSelfTimeOverOverlappingChildren(t *testing.T) {
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 40}}, 80},
		{"overlapping", []interval{{10, 30}, {20, 50}}, 60},
		{"nested", []interval{{10, 90}, {20, 30}, {40, 50}}, 20},
		{"duplicate", []interval{{10, 20}, {10, 20}}, 90},
		{"spilling out both ends", []interval{{-50, 10}, {90, 150}}, 80},
		{"outside", []interval{{-50, -10}, {100, 150}}, 100},
		{"touching", []interval{{10, 20}, {20, 30}}, 80},
		{"mixed", []interval{{60, 70}, {10, 30}, {90, 120}, {20, 50}}, 40},
		{"covering", []interval{{-1, 101}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// TestAnalyzeAttributesLayers builds one job by hand: two concurrent tasks
// whose connector spans overlap, each with a driver call whose engine span
// is its child, plus an engine span from an unrelated in-process query.
func TestAnalyzeAttributesLayers(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	dur := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	span := func(id, parent uint64, name string, start, length int) obs.Span {
		return obs.Span{Name: name, SpanID: id, TraceID: 1, ParentID: parent, Start: at(start), Duration: dur(length)}
	}
	dataCall := span(3, 1, "client.data", 20, 40)
	dataCall.Rows = 1000
	mine := []obs.Span{
		span(100, 0, "job.v2s", 0, 100),
		span(1, 0, "v2s.partition", 10, 60),  // task A: 10..70
		span(2, 0, "v2s.partition", 30, 60),  // task B: 30..90, overlaps A
		dataCall,                             // under A: 20..60
		span(4, 2, "client.control", 40, 20), // under B: 40..60
	}
	engine := []obs.Span{
		span(10, 3, "execute", 25, 30), // under the data call: 25..55
		span(11, 4, "execute", 45, 5),  // under the control call
		span(12, 0, "execute", 0, 500), // harness query: no driver-call parent
	}
	rep := analyze(traceData{recs: []jobRecord{{kind: "v2s", wall: dur(100)}}, mine: mine, engine: engine})
	want := map[string]float64{
		"spark":   20, // 100 ms of job minus the connector spans' union, 10..90
		"core":    60, // A: 60-40 = 20; B: 60-20 = 40
		"server":  25, // data: 40-30 = 10; control: 20-5 = 15
		"vertica": 35, // 30 + 5; the harness query is not counted
	}
	for l, w := range want {
		if got := rep.selfMs[l]; got != w {
			t.Errorf("self time of %s = %g ms, want %g", l, got, w)
		}
	}
	if got := rep.metrics["server.ns_per_row_down"]; got != 10e6/1000 {
		t.Errorf("server.ns_per_row_down = %g, want %g", got, 10e6/1000.0)
	}
	if got := rep.metrics["vertica.execute_ns_per_row"]; got != 30e6/1000 {
		t.Errorf("vertica.execute_ns_per_row = %g, want %g", got, 30e6/1000.0)
	}
	if got := rep.metrics["core.control_stmts_per_job"]; got != 1 {
		t.Errorf("core.control_stmts_per_job = %g, want 1", got)
	}
}

func TestChecksumRejectsDroppedOrAlteredRow(t *testing.T) {
	g := rowGen{seed: 42}
	rows := g.rows(0, 1000)
	want := checksumOf(rows, schemaOrder)

	shuffled := append([]types.Row(nil), rows...)
	for i := range shuffled {
		j := (i * 7919) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	if err := checkRows(shuffled, schema, want); err != nil {
		t.Fatalf("reordering failed the gate: %v", err)
	}
	if err := checkRows(rows[1:], schema, want); err == nil {
		t.Fatal("a dropped row went unnoticed")
	}
	for col := range schema.Cols {
		altered := append([]types.Row(nil), rows...)
		r := altered[500].Clone()
		switch col {
		case 0, 1:
			r[col] = types.IntValue(r[col].I + 1)
		case 2:
			r[col] = types.FloatValue(r[col].F + 0.25)
		case 3:
			r[col] = types.StringValue(r[col].S + "x")
		}
		altered[500] = r
		if err := checkRows(altered, schema, want); err == nil {
			t.Errorf("altering column %s went unnoticed", schema.Cols[col].Name)
		}
	}
}

func TestExactRowsRejectsDroppedAlteredOrDuplicatedRow(t *testing.T) {
	g := rowGen{seed: 7}
	rows := g.rows(500, 600)
	if err := g.exactRows(rows, schema, 500, 600); err != nil {
		t.Fatalf("the generated rows themselves were rejected: %v", err)
	}
	if err := g.exactRows(rows[:99], schema, 500, 600); err == nil {
		t.Error("a dropped row went unnoticed")
	}
	dup := append([]types.Row(nil), rows...)
	dup[10] = dup[11]
	if err := g.exactRows(dup, schema, 500, 600); err == nil {
		t.Error("a duplicated row in place of another went unnoticed")
	}
	altered := append([]types.Row(nil), rows...)
	r := altered[3].Clone()
	r[2] = types.FloatValue(r[2].F + 1)
	altered[3] = r
	if err := g.exactRows(altered, schema, 500, 600); err == nil {
		t.Error("an altered value went unnoticed")
	}
	retyped := append([]types.Row(nil), rows...)
	r = retyped[4].Clone()
	r[1] = types.FloatValue(float64(r[1].I))
	retyped[4] = r
	if err := g.exactRows(retyped, schema, 500, 600); err == nil {
		t.Error("a value of the wrong type went unnoticed")
	}
}

func TestGenerationFollowsTheSeed(t *testing.T) {
	a, b, c := rowGen{seed: 1}, rowGen{seed: 1}, rowGen{seed: 2}
	if checksumOf(a.rows(0, 100), schemaOrder) != checksumOf(b.rows(0, 100), schemaOrder) {
		t.Fatal("the same seed generated different rows")
	}
	if checksumOf(a.rows(0, 100), schemaOrder) == checksumOf(c.rows(0, 100), schemaOrder) {
		t.Fatal("different seeds generated the same rows")
	}
	var sum checksum
	csv := string(a.appendCSV(nil, 0, 2, &sum))
	want := a.rows(0, 2)
	if sum != checksumOf(want, schemaOrder) {
		t.Fatal("appendCSV folded a different checksum than the rows it wrote")
	}
	if csv == "" || csv[len(csv)-1] != '\n' {
		t.Fatalf("appendCSV wrote %q", csv)
	}
}

func TestClassify(t *testing.T) {
	cases := map[string]string{
		"AT EPOCH 12 SELECT id FROM t WHERE HASH(id) >= 0": classData,
		"INSERT INTO t SELECT * FROM s2v_stage_x":          classPublish,
		"ALTER TABLE s2v_stage_x RENAME TO t":              classPublish,
		"INSERT INTO s2v_job_status VALUES ('j', 0.0)":     classControl,
		"SELECT node_address FROM v_catalog.nodes":         classControl,
		"COMMIT": classControl,
	}
	for sql, want := range cases {
		if got := classify(sql); got != want {
			t.Errorf("classify(%q) = %s, want %s", sql, got, want)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics the
// program reports in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program reports %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json %+v, program %s %s %s", kind, i, m, want[i].name, want[i].unit, want[i].better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
