package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"vsfabric/internal/client"
	"vsfabric/internal/core"
	"vsfabric/internal/obs"
	"vsfabric/internal/server"
	"vsfabric/internal/sim"
	"vsfabric/internal/spark"
	"vsfabric/internal/types"
)

const (
	wlV2SBulk = "v2s-bulk"
	wlS2VBulk = "s2v-bulk"
	wlShort   = "short-jobs"

	executors     = 2 // Spark executors, one core each: two task slots
	bulkParts     = 16
	shortRows     = 100
	shortS2VParts = 4
)

var workloads = []string{wlV2SBulk, wlS2VBulk, wlShort}

// engineCounters are the cluster collector counters read around every job.
var engineCounters = []string{"wal.fsyncs", "wal.bytes", "dc.appends", "pool.queued"}

// jobRecord is one connector job as the benchmark saw it.
type jobRecord struct {
	kind  string // "v2s" or "s2v"
	start time.Time
	wall  time.Duration
	load  time.Duration // time in Load() (V2S)
	rows  int64         // rows delivered or committed
	err   string        // "" when the job succeeded and its result checked out

	alloc     uint64 // heap bytes allocated during the job
	gcCycles  uint32
	gcPauseNs uint64
	counters  [4]int64 // deltas of engineCounters

	// Traced phase only.
	attempts           int   // Spark task attempts
	pruned, considered int64 // ROS containers, from v_monitor.query_plans
}

func (j jobRecord) ok() bool { return j.err == "" }

// runner owns one workload run: the fabric, the connector source and the
// generated inputs.
type runner struct {
	workload string
	dir      string
	gen      rowGen
	rng      *rand.Rand
	traced   bool // the run traces its second phase

	fab     *fabric
	relays  []*relay
	tr      *tracer
	src     *core.DefaultSource
	sc      *spark.Context
	tsc     *spark.Context // the traced job's context; its task records land in tasks
	tasks   *sim.Trace
	tracing bool // the current phase is traced

	srcSum   checksum
	bulkRows []types.Row // s2v-bulk input
	bulkSum  checksum
	shortSeq int64 // short S2V jobs so far
	harv     *harvester
	planID   int64 // last v_monitor.query_plans id seen
}

// setup builds a fresh fabric and everything a workload needs before its
// first job, and returns how long that took.
func (r *runner) setup() (time.Duration, error) {
	t0 := time.Now()
	r.srcSum = checksum{}
	fab, err := startFabric(r.dir, r.gen, &r.srcSum)
	if err != nil {
		return 0, err
	}
	r.fab = fab
	var conn client.Connector = fab.direct
	if r.traced {
		relayed := &server.DialConnector{Endpoints: map[string]string{}}
		for addr, ep := range fab.direct.Endpoints {
			rl, err := startRelay(ep)
			if err != nil {
				return 0, err
			}
			r.relays = append(r.relays, rl)
			relayed.Endpoints[addr] = rl.addr()
		}
		r.tr = newTracer(fab.direct, relayed)
		conn = r.tr
		r.harv = &harvester{col: fab.cl.Obs()}
	}
	r.sc = newSparkContext(nil)
	r.src = core.NewDefaultSource(conn)
	r.src.Register()
	if r.workload == wlS2VBulk {
		r.bulkRows = r.gen.rows(tableRows, 2*tableRows)
		r.bulkSum = checksumOf(r.bulkRows, schemaOrder)
	}
	r.shortSeq = 0
	if err := fab.exec(tableDDL(shortTable)); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// teardown stops the relays and the fabric.
func (r *runner) teardown() error {
	for _, rl := range r.relays {
		rl.close()
	}
	r.relays = nil
	if r.fab == nil {
		return nil
	}
	err := r.fab.close()
	r.fab = nil
	return err
}

// setTraced switches tracing on or off for the jobs that follow.
func (r *runner) setTraced(on bool) error {
	r.tracing = on
	if r.tr == nil {
		return nil
	}
	r.tr.on.Store(on)
	if !on {
		r.src.WithObserver(nil)
		return nil
	}
	r.src.WithObserver(r.tr.col)
	r.harv.skip()
	var err error
	r.planID, err = r.lastPlanID()
	return err
}

func newSparkContext(tasks *sim.Trace) *spark.Context {
	return spark.NewContext(spark.Conf{AppName: "perfbench", NumExecutors: executors, CoresPerExecutor: 1, Trace: tasks})
}

func (r *runner) context() *spark.Context {
	if r.tracing {
		return r.tsc
	}
	return r.sc
}

func (r *runner) options(table string) map[string]string {
	return map[string]string{"host": r.fab.cl.Node(0).Addr, "table": table}
}

// step runs the workload's unit of work: one bulk job, or one short V2S job
// followed by one short S2V job. Inputs and targets are prepared outside
// the measured region.
func (r *runner) step() []jobRecord {
	switch r.workload {
	case wlV2SBulk:
		rec := r.measure("v2s", r.bulkV2S)
		runtime.GC() // start every bulk job from a collected heap
		return []jobRecord{rec}
	case wlS2VBulk:
		if err := r.recreate(s2vTarget); err != nil {
			return []jobRecord{{kind: "s2v", err: err.Error()}}
		}
		st, err := r.jobStatus()
		if err != nil {
			return []jobRecord{{kind: "s2v", err: err.Error()}}
		}
		rec := r.measure("s2v", func(rec *jobRecord) (func() error, error) { return r.bulkS2V(rec, st) })
		runtime.GC()
		return []jobRecord{rec}
	default:
		return []jobRecord{r.measure("v2s", r.shortV2S), r.shortSave()}
	}
}

// warmUp runs one checked unit of work before timing starts, so that lazy
// set-up (the first S2V job creates the permanent status table) is not
// timed. s2v-bulk warms up with a short save rather than a 1M-row one.
func (r *runner) warmUp() []jobRecord {
	if r.workload == wlS2VBulk {
		return []jobRecord{r.shortSave()}
	}
	return r.step()
}

// shortSave saves the next shortRows generated rows into shortTable.
func (r *runner) shortSave() jobRecord {
	st, err := r.jobStatus()
	if err != nil {
		return jobRecord{kind: "s2v", err: err.Error()}
	}
	lo := 2*tableRows + r.shortSeq*shortRows
	r.shortSeq++
	rows := r.gen.rows(lo, lo+shortRows)
	return r.measure("s2v", func(rec *jobRecord) (func() error, error) { return r.shortS2V(rec, st, rows, lo) })
}

// jobFunc runs one job, timing it into rec, and returns a check to run
// after the timed region.
type jobFunc func(rec *jobRecord) (check func() error, err error)

// measure runs one job and its result check, and reads the runtime and
// engine counters around the job alone.
func (r *runner) measure(kind string, job jobFunc) jobRecord {
	rec := jobRecord{kind: kind}
	if r.tracing {
		// A fresh context per traced job, so that its task records are this
		// job's attempts alone.
		r.tasks = sim.NewTrace()
		r.tsc = newSparkContext(r.tasks)
	}
	var before, after [4]int64
	var msBefore, msAfter runtime.MemStats
	r.readCounters(&before)
	runtime.ReadMemStats(&msBefore)
	check, err := job(&rec)
	runtime.ReadMemStats(&msAfter)
	r.readCounters(&after)
	rec.alloc = msAfter.TotalAlloc - msBefore.TotalAlloc
	rec.gcCycles = msAfter.NumGC - msBefore.NumGC
	rec.gcPauseNs = msAfter.PauseTotalNs - msBefore.PauseTotalNs
	for i := range after {
		rec.counters[i] = after[i] - before[i]
	}
	if err == nil {
		err = check()
	}
	if r.tracing {
		for _, t := range r.tasks.Tasks() {
			if strings.HasPrefix(t.ID, "stage") {
				rec.attempts++
			}
		}
		if kind == "v2s" && err == nil {
			rec.pruned, rec.considered, err = r.plansSince()
		}
		r.harv.take()
	}
	if err != nil {
		rec.err = err.Error()
	}
	if r.tracing {
		id := obs.NewID()
		r.tr.col.SpanEnd(obs.Span{Name: "job." + kind, Node: "driver", TraceID: id, SpanID: id,
			Start: rec.start, Duration: rec.wall, Rows: rec.rows, Err: rec.err})
	}
	return rec
}

func (r *runner) readCounters(dst *[4]int64) {
	col := r.fab.cl.Obs()
	for i, name := range engineCounters {
		dst[i] = col.Counter(name)
	}
}

// load runs Load() and Collect() over srcTable with the given pushdown
// filters.
func (r *runner) load(rec *jobRecord, filters ...spark.Filter) ([]types.Row, types.Schema, error) {
	t0 := time.Now()
	rec.start = t0
	df, err := r.context().Read().Format(core.DefaultSourceName).Options(r.options(srcTable)).Load()
	rec.load = time.Since(t0)
	var rows []types.Row
	if err == nil {
		for _, f := range filters {
			df = df.Where(f)
		}
		rows, err = df.Collect()
	}
	rec.wall = time.Since(t0)
	if err != nil {
		return nil, types.Schema{}, err
	}
	rec.rows = int64(len(rows))
	return rows, df.Schema(), nil
}

// save runs one Append-mode Save() of rows into table.
func (r *runner) save(rec *jobRecord, table string, rows []types.Row, parts int) error {
	df := spark.CreateDataFrame(r.context(), schema, rows, parts)
	w := df.Write().Format(core.DefaultSourceName).Options(r.options(table)).Mode(spark.SaveAppend)
	t0 := time.Now()
	rec.start = t0
	err := w.Save()
	rec.wall = time.Since(t0)
	if err == nil {
		rec.rows = int64(len(rows))
	}
	return err
}

func (r *runner) bulkV2S(rec *jobRecord) (func() error, error) {
	rows, s, err := r.load(rec)
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := checkRows(rows, s, r.srcSum); err != nil {
			return fmt.Errorf("v2s-bulk: %w", err)
		}
		return nil
	}, nil
}

func (r *runner) bulkS2V(rec *jobRecord, st statusCounts) (func() error, error) {
	if err := r.save(rec, s2vTarget, r.bulkRows, bulkParts); err != nil {
		return nil, err
	}
	return func() error {
		res, err := r.fab.query("SELECT id, grp, val, tag FROM " + s2vTarget)
		if err != nil {
			return err
		}
		if err := checkRows(res.Rows, res.Schema, r.bulkSum); err != nil {
			return fmt.Errorf("s2v-bulk target: %w", err)
		}
		return r.checkStatus(st)
	}, nil
}

func (r *runner) shortV2S(rec *jobRecord) (func() error, error) {
	lo := r.rng.Int63n(tableRows - shortRows)
	rows, s, err := r.load(rec,
		spark.GreaterThanOrEqual{Col: "id", Value: types.IntValue(lo)},
		spark.LessThan{Col: "id", Value: types.IntValue(lo + shortRows)})
	if err != nil {
		return nil, err
	}
	return func() error {
		if err := r.gen.exactRows(rows, s, lo, lo+shortRows); err != nil {
			return fmt.Errorf("short v2s [%d,%d): %w", lo, lo+shortRows, err)
		}
		return nil
	}, nil
}

// shortS2V saves rows, whose ids are [lo, lo+shortRows), into shortTable.
func (r *runner) shortS2V(rec *jobRecord, st statusCounts, rows []types.Row, lo int64) (func() error, error) {
	if err := r.save(rec, shortTable, rows, shortS2VParts); err != nil {
		return nil, err
	}
	return func() error {
		res, err := r.fab.query(fmt.Sprintf("SELECT id, grp, val, tag FROM %s WHERE id >= %d AND id < %d", shortTable, lo, lo+shortRows))
		if err != nil {
			return err
		}
		if err := r.gen.exactRows(res.Rows, res.Schema, lo, lo+shortRows); err != nil {
			return fmt.Errorf("short s2v [%d,%d): %w", lo, lo+shortRows, err)
		}
		n, err := r.fab.intValue("SELECT COUNT(*) FROM " + shortTable)
		if err != nil {
			return err
		}
		if want := r.shortSeq * shortRows; n != want {
			return fmt.Errorf("short s2v: target holds %d rows after %d saves, want %d", n, r.shortSeq, want)
		}
		return r.checkStatus(st)
	}, nil
}

// recreate drops and recreates an empty segmented target, untimed.
func (r *runner) recreate(table string) error {
	if err := r.fab.exec("DROP TABLE IF EXISTS " + table); err != nil {
		return err
	}
	return r.fab.exec(tableDDL(table))
}

// statusCounts is the size of the permanent S2V job status table.
type statusCounts struct{ total, success int64 }

func (r *runner) jobStatus() (statusCounts, error) {
	var st statusCounts
	res, err := r.fab.query("SELECT table_name FROM v_catalog.tables WHERE table_name = '" + core.JobStatusTable + "'")
	if err != nil || len(res.Rows) == 0 {
		return st, err
	}
	if st.total, err = r.fab.intValue("SELECT COUNT(*) FROM " + core.JobStatusTable); err != nil {
		return st, err
	}
	st.success, err = r.fab.intValue("SELECT COUNT(*) FROM " + core.JobStatusTable + " WHERE status = 'SUCCESS'")
	return st, err
}

// checkStatus verifies that the save added exactly one row, marked SUCCESS,
// to the permanent job status table.
func (r *runner) checkStatus(before statusCounts) error {
	after, err := r.jobStatus()
	if err != nil {
		return err
	}
	if after.total != before.total+1 || after.success != before.success+1 {
		return fmt.Errorf("%s went from %d rows (%d SUCCESS) to %d (%d SUCCESS), want one more SUCCESS row",
			core.JobStatusTable, before.total, before.success, after.total, after.success)
	}
	return nil
}

// lastPlanID is the newest v_monitor.query_plans id.
func (r *runner) lastPlanID() (int64, error) {
	return r.fab.intValue("SELECT MAX(plan_id) FROM v_monitor.query_plans")
}

// plansSince sums container pruning over the data SELECTs on srcTable
// planned since the last call.
func (r *runner) plansSince() (pruned, considered int64, err error) {
	res, err := r.fab.query(fmt.Sprintf(
		"SELECT query, containers_scanned, containers_pruned FROM v_monitor.query_plans WHERE plan_id > %d AND anchor_table = '%s'",
		r.planID, srcTable))
	if err != nil {
		return 0, 0, err
	}
	for _, row := range res.Rows {
		if classify(row[0].S) != classData {
			continue
		}
		considered += row[1].I + row[2].I
		pruned += row[2].I
	}
	r.planID, err = r.lastPlanID()
	return pruned, considered, err
}

// phase runs steps back to back for d.
func (r *runner) phase(d time.Duration) []jobRecord {
	var recs []jobRecord
	for end := time.Now().Add(d); time.Now().Before(end); {
		recs = append(recs, r.step()...)
	}
	return recs
}
