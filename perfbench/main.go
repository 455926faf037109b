// Command perfbench is the fabric's end-to-end benchmark. It starts a
// four-node in-process cluster, each node behind its own TCP listener, and
// runs real connector jobs through spark.Context → core.DefaultSource →
// server.DialConnector, checking every result.
//
//	perfbench --workload v2s-bulk|s2v-bulk|short-jobs --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// half the time untraced and half traced, and prints the per-layer metrics,
// each layer's self time and the tracing overhead, and writes the traced
// spans as one Chrome trace under .bench_build/. Either way the last line
// of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The command exits non-zero when any job fails or returns wrong rows, or
// when a run leaks sessions, S2V temporary tables or pool grants. Run it
// from the repository root through perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupsPerRun is how many times an untraced run builds the fabric; it
// reports the median as setup_s and runs its jobs on the last one.
const setupsPerRun = 3

// buildDir holds everything a run writes, relative to the repository root.
const buildDir = ".bench_build"

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long to run jobs")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced per-layer breakdown")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if !validWorkload(cfg.workload) || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloads, ", "))
		os.Exit(2)
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func validWorkload(w string) bool {
	for _, v := range workloads {
		if v == w {
			return true
		}
	}
	return false
}

// run performs one benchmark run and returns its result line; the report
// goes to standard output as it is produced.
func run(cfg config) (res result, err error) {
	r := &runner{
		workload: cfg.workload,
		dir:      filepath.Join(buildDir, "data-"+cfg.workload),
		gen:      rowGen{seed: uint64(cfg.seed)},
		rng:      rand.New(rand.NewSource(cfg.seed)),
		traced:   cfg.trace,
	}
	defer func() {
		if terr := r.teardown(); terr != nil && err == nil {
			err = terr
		}
	}()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nodes=%d task_slots=%d table_rows=%d gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, btoi(cfg.trace), numNodes, executors, tableRows, runtime.GOMAXPROCS(0))

	setups := setupsPerRun
	if cfg.trace {
		setups = 1
	}
	var setupS []float64
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := r.teardown(); err != nil {
				return res, err
			}
		}
		d, err := r.setup()
		if err != nil {
			return res, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, d.Seconds())
	}
	runtime.GC()
	baseline := r.fab.openSessions()

	total := r.warmUp()

	var plain, traced []jobRecord
	if cfg.trace {
		half := time.Duration(cfg.seconds) * time.Second / 2
		plain = r.phase(half)
		if err := r.setTraced(true); err != nil {
			return res, err
		}
		traced = r.phase(half)
		if err := r.setTraced(false); err != nil {
			return res, err
		}
	} else {
		plain = r.phase(time.Duration(cfg.seconds) * time.Second)
	}
	total = append(append(total, plain...), traced...)

	lk, err := r.fab.checkLeaks(baseline)
	if err != nil {
		return res, fmt.Errorf("leak check: %w", err)
	}

	res = result{Attempted: len(total), Metrics: map[string]metric{}}
	var failures []string
	for _, rec := range total {
		if !rec.ok() {
			res.Failed++
			failures = append(failures, rec.kind+": "+rec.err)
		}
	}
	res.Correct = res.Failed == 0 && lk.clean()

	if cfg.trace {
		if err := reportTraced(r, plain, traced, res.Metrics); err != nil {
			return res, err
		}
	} else {
		reportEndToEnd(cfg.workload, setupS, plain, res.Metrics)
	}
	fmt.Printf("failed_ratio = %.4f (%d failed of %d attempted jobs, warm-up included)\n",
		div(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	for i, f := range failures {
		if i == 10 {
			fmt.Printf("  ... %d more failures\n", len(failures)-i)
			break
		}
		fmt.Printf("  failure: %s\n", f)
	}
	state := "clean"
	if !lk.clean() {
		state = "LEAK"
	}
	fmt.Printf("leak check: %s (%s)\n", state, lk)
	printLOC(".")
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// kindStats summarizes the successful jobs of one kind.
type kindStats struct {
	n      int
	rows   int64
	wall   time.Duration
	alloc  uint64
	wallMs []float64
}

func statsOf(recs []jobRecord, kind string) kindStats {
	var k kindStats
	for _, rec := range recs {
		if rec.kind != kind || !rec.ok() {
			continue
		}
		k.n++
		k.rows += rec.rows
		k.wall += rec.wall
		k.alloc += rec.alloc
		k.wallMs = append(k.wallMs, float64(rec.wall)/1e6)
	}
	return k
}

// units returns the wall time of each unit of work in ms: a job, or on
// short-jobs a V2S job plus the S2V job after it (both must have
// succeeded).
func units(workload string, recs []jobRecord) []float64 {
	var out []float64
	if workload != wlShort {
		for _, rec := range recs {
			if rec.ok() {
				out = append(out, float64(rec.wall)/1e6)
			}
		}
		return out
	}
	for i := 0; i+1 < len(recs); i += 2 {
		if recs[i].ok() && recs[i+1].ok() {
			out = append(out, float64(recs[i].wall+recs[i+1].wall)/1e6)
		}
	}
	return out
}

// reportEndToEnd prints the end-to-end metrics and fills the result's.
func reportEndToEnd(workload string, setupS []float64, recs []jobRecord, out map[string]metric) {
	var rows int64
	var wall time.Duration
	var alloc uint64
	for _, rec := range recs {
		if rec.ok() {
			rows += rec.rows
			wall += rec.wall
			alloc += rec.alloc
		}
	}
	u := units(workload, recs)
	vals := map[string]float64{
		"setup_s":             median(setupS),
		"rows_per_s":          div(float64(rows), wall.Seconds()),
		"job_p50_ms":          median(u),
		"alloc_bytes_per_row": div(float64(alloc), float64(rows)),
	}
	samples := map[string]string{
		"setup_s":             fmt.Sprintf("n=%d set-ups %s", len(setupS), fmtList(setupS, "%.3f")),
		"rows_per_s":          fmt.Sprintf("n=%d jobs, %d rows", len(recs), rows),
		"job_p50_ms":          fmt.Sprintf("n=%d %s", len(u), unitName(workload)),
		"alloc_bytes_per_row": fmt.Sprintf("n=%d jobs", len(recs)),
	}
	fmt.Println("end-to-end metrics (untraced):")
	for _, m := range endToEnd {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
		fmt.Printf("  %-22s = %14.4f %-7s (%s)\n", m.name, vals[m.name], m.unit, samples[m.name])
	}
	if p, ok := highestPercentile(len(u)); ok && p > 50 {
		fmt.Printf("  %-22s = %14.4f %-7s (n=%d %s)\n", fmt.Sprintf("job_p%g_ms", p), percentile(u, p), "ms", len(u), unitName(workload))
	}
	if len(u) <= 40 {
		fmt.Printf("  unit wall times (ms): %s\n", fmtList(u, "%.1f"))
	}

	// The same run by job kind, under the names the paper's directions use.
	fmt.Println("by job kind:")
	for _, kind := range []string{"v2s", "s2v"} {
		k := statsOf(recs, kind)
		if k.n == 0 {
			continue
		}
		fmt.Printf("  %s_rows_per_s          = %14.1f rows/s  (n=%d jobs)\n", kind, div(float64(k.rows), k.wall.Seconds()), k.n)
		fmt.Printf("  %s_job_p50_ms          = %14.4f ms      (n=%d jobs)\n", kind, median(k.wallMs), k.n)
		if p, ok := highestPercentile(k.n); ok && p > 50 {
			fmt.Printf("  %-22s = %14.4f ms      (n=%d jobs)\n", fmt.Sprintf("%s_job_p%g_ms", kind, p), percentile(k.wallMs, p), k.n)
		} else {
			fmt.Printf("  %s_job_p99_ms          = not reported: %d jobs leave fewer than %d beyond any percentile above p50\n", kind, k.n, minBeyond)
		}
		fmt.Printf("  %s_alloc_kb_per_job    = %14.1f KB      (n=%d jobs)\n", kind, div(float64(k.alloc)/1024, float64(k.n)), k.n)
	}
	fmt.Printf("  jobs_per_s             = %14.2f 1/s     (n=%d jobs, per second of job wall)\n",
		div(float64(countOK(recs)), wall.Seconds()), countOK(recs))
}

func countOK(recs []jobRecord) int {
	n := 0
	for _, rec := range recs {
		if rec.ok() {
			n++
		}
	}
	return n
}

func unitName(workload string) string {
	if workload == wlShort {
		return "read+write pairs"
	}
	return "jobs"
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// reportTraced prints the per-layer breakdown of the traced phase and
// fills the result's metrics with it.
func reportTraced(r *runner, plain, traced []jobRecord, out map[string]metric) error {
	td := traceData{
		recs:     traced,
		mine:     r.tr.col.Spans(),
		engine:   r.harv.spans,
		copyWait: time.Duration(r.tr.copyWait.Load()),
		copyB:    r.tr.copyBytes.Load(),
	}
	for _, rl := range r.relays {
		td.relayUp += rl.up.Load()
		td.relayDn += rl.down.Load()
	}
	for _, name := range []string{"retry", "backoff", "failover", "conn_failure"} {
		td.events += r.tr.col.Counter(name)
	}
	rep := analyze(td)
	plainP50, tracedP50 := median(units(r.workload, plain)), median(units(r.workload, traced))
	rep.metrics["trace.overhead_ratio"] = div(tracedP50, plainP50) - 1

	fmt.Printf("traced phase: %d jobs, %d task slots, job wall %.1f ms/job\n", rep.jobs, executors, div(rep.wallMs, float64(rep.jobs)))
	fmt.Println("self time by layer (busy time summed over concurrent tasks; can exceed the job wall):")
	for _, l := range layers {
		fmt.Printf("  %-8s %10.3f ms/job  %6.1f%% of job wall\n", l, div(rep.selfMs[l], float64(rep.jobs)), 100*div(rep.selfMs[l], rep.wallMs))
	}
	fmt.Printf("tracing overhead: unit p50 %.3f ms untraced (n=%d) vs %.3f ms traced (n=%d)\n",
		plainP50, len(units(r.workload, plain)), tracedP50, len(units(r.workload, traced)))
	if lost := r.harv.lost + uint64(r.tr.lostSpans()); lost > 0 {
		fmt.Printf("WARNING: %d spans were overwritten before they were read; span-derived metrics undercount\n", lost)
	}
	fmt.Println("per-layer metrics (traced phase):")
	for _, m := range perLayer {
		out[m.name] = metric{Value: rep.metrics[m.name], Unit: m.unit}
		fmt.Printf("  %-33s = %14.4f %-7s moves %s on %s\n", m.name, rep.metrics[m.name], m.unit, m.moves, m.on)
	}
	path := filepath.Join(buildDir, "trace-"+r.workload+".json")
	if err := writeTrace(path, td.mine, td.engine); err != nil {
		return err
	}
	fmt.Printf("chrome trace: %s (%d spans)\n", path, len(td.mine)+len(td.engine))
	return nil
}
