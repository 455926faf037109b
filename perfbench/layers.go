package main

import (
	"sort"
	"strings"
	"time"

	"vsfabric/internal/obs"
)

// Layers in the order a job descends through them; the self-time table
// lists them in this order.
var layers = []string{"spark", "core", "server", "vertica"}

// layerOf names the layer a span belongs to: the benchmark's job spans are
// Spark's, the connector's v2s.*/s2v.* spans are core's, the tracer's
// client.* spans (driver calls: dial, encode, wire, decode) are the
// server module's, and the engine's execute/copy spans are vertica's.
func layerOf(sp obs.Span) string {
	switch {
	case strings.HasPrefix(sp.Name, "job."):
		return "spark"
	case strings.HasPrefix(sp.Name, "v2s."), strings.HasPrefix(sp.Name, "s2v."):
		return "core"
	case strings.HasPrefix(sp.Name, "client."):
		return "server"
	default:
		return "vertica"
	}
}

func spanInterval(sp obs.Span) interval {
	lo := sp.Start.UnixNano()
	return interval{lo, lo + int64(sp.Duration)}
}

// traceData is everything a traced phase recorded.
type traceData struct {
	recs     []jobRecord
	mine     []obs.Span // job, connector and driver-call spans
	engine   []obs.Span // engine spans harvested from the cluster collector
	relayUp  int64
	relayDn  int64
	copyWait time.Duration
	copyB    int64
	events   int64 // resilience events
}

// layerReport is the per-layer breakdown of a traced phase.
type layerReport struct {
	jobs    int
	wallMs  float64            // summed job wall time
	selfMs  map[string]float64 // summed self time per layer
	metrics map[string]float64
}

// analyze attributes the traced phase's time to layers and computes every
// per-layer metric except trace.overhead_ratio.
func analyze(td traceData) layerReport {
	rep := layerReport{selfMs: map[string]float64{}, metrics: map[string]float64{}}
	byID := map[uint64]obs.Span{}
	for _, sp := range td.mine {
		byID[sp.SpanID] = sp
	}
	// Keep only engine spans a traced driver call caused; the harness's own
	// checking queries run in-process and have no such parent.
	var engine []obs.Span
	for _, sp := range td.engine {
		if p, ok := byID[sp.ParentID]; ok && layerOf(p) == "server" {
			engine = append(engine, sp)
		}
	}
	all := append(append([]obs.Span(nil), td.mine...), engine...)
	children := map[uint64][]interval{}
	var connector []obs.Span // core and server spans, by start time
	for _, sp := range all {
		if layerOf(sp) == "spark" {
			continue
		}
		if sp.ParentID != 0 {
			children[sp.ParentID] = append(children[sp.ParentID], spanInterval(sp))
		}
		if l := layerOf(sp); l == "core" || l == "server" {
			connector = append(connector, sp)
		}
	}
	sort.Slice(connector, func(i, j int) bool { return connector[i].Start.Before(connector[j].Start) })

	// Self time: a span's duration minus what its children cover. A job's
	// children are every connector span and driver call that started in it.
	for _, sp := range all {
		iv := spanInterval(sp)
		l := layerOf(sp)
		kids := children[sp.SpanID]
		if l == "spark" {
			kids = nil
			k := sort.Search(len(connector), func(i int) bool { return !connector[i].Start.Before(sp.Start) })
			for ; k < len(connector) && spanInterval(connector[k]).lo < iv.hi; k++ {
				kids = append(kids, spanInterval(connector[k]))
			}
		}
		rep.selfMs[l] += float64(selfTime(iv.lo, iv.hi, kids)) / 1e6
	}

	// Driver-call classes and their engine children.
	var (
		controlStmts, connects            int
		controlNs, downNs, rowsDown       int64
		rowsUp, execNs, copyNs, publishNs int64
		connectUs, controlEngineUs        []float64
	)
	engineUnder := map[uint64]int64{}
	for _, sp := range engine {
		engineUnder[sp.ParentID] += int64(sp.Duration)
		switch byID[sp.ParentID].Name {
		case "client." + classData:
			execNs += int64(sp.Duration)
		case "client." + classCopy:
			copyNs += int64(sp.Duration)
		case "client." + classPublish:
			publishNs += int64(sp.Duration)
		case "client." + classControl:
			controlEngineUs = append(controlEngineUs, float64(sp.Duration)/1e3)
		}
	}
	for _, sp := range td.mine {
		switch sp.Name {
		case "client." + classConnect:
			connects++
			connectUs = append(connectUs, float64(sp.Duration)/1e3)
		case "client." + classControl:
			controlStmts++
			controlNs += int64(sp.Duration)
		case "client." + classData:
			rowsDown += sp.Rows
			downNs += int64(sp.Duration) - engineUnder[sp.SpanID]
		case "client." + classCopy:
			rowsUp += sp.Rows
		}
	}

	var v2sJobs, s2vJobs, attempts int
	var loadNs, rowsSaved, pruned, considered int64
	var gcCycles, gcPauseNs uint64
	var counters [4]int64
	for _, rec := range td.recs {
		rep.jobs++
		rep.wallMs += float64(rec.wall) / 1e6
		attempts += rec.attempts
		gcCycles += uint64(rec.gcCycles)
		gcPauseNs += rec.gcPauseNs
		for i, c := range rec.counters {
			counters[i] += c
		}
		if rec.kind == "v2s" {
			v2sJobs++
			loadNs += int64(rec.load)
			pruned += rec.pruned
			considered += rec.considered
		} else {
			s2vJobs++
			if rec.ok() {
				rowsSaved += rec.rows
			}
		}
	}

	jobs := float64(rep.jobs)
	m := rep.metrics
	m["job.wall_ms_per_job"] = div(rep.wallMs, jobs)
	m["spark.self_ms_per_job"] = div(rep.selfMs["spark"], jobs)
	m["spark.task_attempts_per_job"] = div(float64(attempts), jobs)
	m["core.self_ms_per_job"] = div(rep.selfMs["core"], jobs)
	m["core.relation_ms_per_job"] = div(float64(loadNs)/1e6, float64(v2sJobs))
	m["core.control_stmts_per_job"] = div(float64(controlStmts), jobs)
	m["core.control_ms_per_job"] = div(float64(controlNs)/1e6, jobs)
	m["server.self_ms_per_job"] = div(rep.selfMs["server"], jobs)
	m["server.connects_per_job"] = div(float64(connects), jobs)
	m["server.connect_us_p50"] = median(connectUs)
	m["server.ns_per_row_down"] = div(float64(downNs), float64(rowsDown))
	m["server.bytes_per_row_down"] = div(float64(td.relayDn), float64(rowsDown))
	m["server.bytes_per_row_up"] = div(float64(td.relayUp), float64(rowsUp))
	m["vertica.self_ms_per_job"] = div(rep.selfMs["vertica"], jobs)
	m["vertica.execute_ns_per_row"] = div(float64(execNs), float64(rowsDown))
	m["vertica.copy_ns_per_row"] = div(float64(copyNs), float64(rowsUp))
	m["vertica.publish_ms_per_job"] = div(float64(publishNs)/1e6, float64(s2vJobs))
	m["vertica.control_stmt_us_p50"] = median(controlEngineUs)
	m["storage.containers_pruned_ratio"] = div(float64(pruned), float64(considered))
	m["avro.bytes_per_row"] = div(float64(td.copyB), float64(rowsUp))
	m["avro.encode_wait_ns_per_row"] = div(float64(td.copyWait), float64(rowsUp))
	m["wal.fsyncs_per_job"] = div(float64(counters[0]), jobs)
	m["wal.bytes_per_row"] = div(float64(counters[1]), float64(rowsSaved))
	m["dc.appends_per_job"] = div(float64(counters[2]), jobs)
	m["pool.queued_per_job"] = div(float64(counters[3]), jobs)
	m["resilience.events_per_job"] = div(float64(td.events), jobs)
	m["gc.cycles_per_job"] = div(float64(gcCycles), jobs)
	m["gc.pause_ms_per_job"] = div(float64(gcPauseNs)/1e6, jobs)
	return rep
}

// div is a/b, and 0 when there is nothing to divide by: a layer the
// workload does not exercise reads 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
