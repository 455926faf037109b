package main

// metricSpec describes one reported metric. For a per-layer metric, moves
// and on name the end-to-end metric and workload a change to that layer
// should move, so that a claim can cite them before it is measured; the
// traced report prints them next to each value.
type metricSpec struct {
	name, unit, better string
	moves, on          string
}

// endToEnd are the metrics every untraced run reports. BENCHMARK.json lists
// the same names, units and directions.
var endToEnd = []metricSpec{
	// Median over the run's set-ups of: cluster start, listeners, data generation and load, moveout.
	{name: "setup_s", unit: "s", better: "lower"},
	// Rows delivered to Spark (V2S) or committed (S2V) per second of job wall time.
	{name: "rows_per_s", unit: "rows/s", better: "higher"},
	// Median job wall time; on short-jobs, of one V2S job plus the S2V job after it.
	{name: "job_p50_ms", unit: "ms", better: "lower"},
	// Go heap bytes allocated inside jobs (client and server share the process) per row moved.
	{name: "alloc_bytes_per_row", unit: "B/row", better: "lower"},
}

// perLayer are the metrics a traced run reports. A metric whose layer the
// workload does not exercise reads 0.
var perLayer = []metricSpec{
	// Mean job wall time in the traced phase, the base the layer self times below divide.
	{name: "job.wall_ms_per_job", unit: "ms", better: "lower", moves: "job_p50_ms", on: "all"},
	// Job wall during which no connector span or driver call is open.
	{name: "spark.self_ms_per_job", unit: "ms", better: "lower", moves: "rows_per_s", on: "v2s-bulk"},
	// Spark task attempts per job, from the context's task records.
	{name: "spark.task_attempts_per_job", unit: "count", better: "lower", moves: "failed_ratio", on: "all"},
	// Connector span time not spent inside a driver call, summed over concurrent tasks.
	{name: "core.self_ms_per_job", unit: "ms", better: "lower", moves: "job_p50_ms", on: "all"},
	// Time in Load() (relation creation, catalog discovery) per V2S job.
	{name: "core.relation_ms_per_job", unit: "ms", better: "lower", moves: "v2s_job_p50_ms", on: "short-jobs"},
	// Control statements (catalog, epoch, DDL, status, txn) per job.
	{name: "core.control_stmts_per_job", unit: "count", better: "lower", moves: "v2s_job_p50_ms, s2v_job_p50_ms, jobs_per_s", on: "short-jobs"},
	// Client-observed time in control statements per job.
	{name: "core.control_ms_per_job", unit: "ms", better: "lower", moves: "v2s_job_p50_ms, s2v_job_p50_ms, jobs_per_s", on: "short-jobs"},
	// Driver call time not covered by an engine span (dial, encode, wire, decode), summed over tasks.
	{name: "server.self_ms_per_job", unit: "ms", better: "lower", moves: "job_p50_ms", on: "all"},
	// Connections dialed (TCP connect plus handshake) per job.
	{name: "server.connects_per_job", unit: "count", better: "lower", moves: "v2s_job_p50_ms, s2v_job_p50_ms", on: "short-jobs"},
	// Median connect time.
	{name: "server.connect_us_p50", unit: "us", better: "lower", moves: "v2s_job_p50_ms, s2v_job_p50_ms", on: "short-jobs"},
	// Client-observed data Execute minus the server execute span, per row delivered.
	{name: "server.ns_per_row_down", unit: "ns/row", better: "lower", moves: "v2s_rows_per_s", on: "v2s-bulk"},
	// Server-to-client TCP bytes per row delivered.
	{name: "server.bytes_per_row_down", unit: "B/row", better: "lower", moves: "v2s_rows_per_s", on: "v2s-bulk"},
	// Client-to-server TCP bytes per row loaded.
	{name: "server.bytes_per_row_up", unit: "B/row", better: "lower", moves: "s2v_rows_per_s", on: "s2v-bulk"},
	// Engine execute and copy span time per job, summed over sessions.
	{name: "vertica.self_ms_per_job", unit: "ms", better: "lower", moves: "job_p50_ms", on: "all"},
	// Server execute spans of data SELECTs per row delivered.
	{name: "vertica.execute_ns_per_row", unit: "ns/row", better: "lower", moves: "v2s_rows_per_s", on: "v2s-bulk"},
	// Server copy spans per row loaded.
	{name: "vertica.copy_ns_per_row", unit: "ns/row", better: "lower", moves: "s2v_rows_per_s", on: "s2v-bulk"},
	// Server time of the phase-5 publish statement per S2V job.
	{name: "vertica.publish_ms_per_job", unit: "ms", better: "lower", moves: "s2v_rows_per_s; s2v_job_p50_ms", on: "s2v-bulk; short-jobs"},
	// Median server span of a control statement.
	{name: "vertica.control_stmt_us_p50", unit: "us", better: "lower", moves: "v2s_job_p50_ms, s2v_job_p50_ms", on: "short-jobs"},
	// ROS containers skipped by zone maps over containers considered, from v_monitor.query_plans.
	{name: "storage.containers_pruned_ratio", unit: "ratio", better: "higher", moves: "v2s_job_p50_ms", on: "short-jobs (0 on v2s-bulk)"},
	// Encoded COPY input bytes per row loaded.
	{name: "avro.bytes_per_row", unit: "B/row", better: "lower", moves: "s2v_rows_per_s", on: "s2v-bulk"},
	// Time the COPY consumer waited on the connector's CopyStream, per row loaded.
	{name: "avro.encode_wait_ns_per_row", unit: "ns/row", better: "lower", moves: "s2v_rows_per_s", on: "s2v-bulk"},
	// WAL fsyncs per job (counter wal.fsyncs).
	{name: "wal.fsyncs_per_job", unit: "count", better: "lower", moves: "s2v_job_p50_ms", on: "short-jobs"},
	// WAL bytes per row saved (counter wal.bytes).
	{name: "wal.bytes_per_row", unit: "B/row", better: "lower", moves: "s2v_rows_per_s", on: "s2v-bulk"},
	// Data-collector records spooled per job (counter dc.appends).
	{name: "dc.appends_per_job", unit: "count", better: "lower", moves: "v2s_job_p50_ms, s2v_job_p50_ms", on: "short-jobs"},
	// Statements that queued for a resource pool per job (counter pool.queued).
	{name: "pool.queued_per_job", unit: "count", better: "lower", moves: "v2s_job_p99_ms, s2v_job_p99_ms", on: "short-jobs (expected 0 at 2 slots)"},
	// Retry, backoff, failover and conn_failure events per job.
	{name: "resilience.events_per_job", unit: "count", better: "lower", moves: "failed_ratio, p99s", on: "all (expected 0)"},
	// Go GC cycles completed per job.
	{name: "gc.cycles_per_job", unit: "count", better: "lower", moves: "alloc_bytes_per_row, rows_per_s", on: "v2s-bulk; s2v-bulk"},
	// Go GC stop-the-world pause per job.
	{name: "gc.pause_ms_per_job", unit: "ms", better: "lower", moves: "alloc_bytes_per_row, rows_per_s", on: "v2s-bulk; s2v-bulk"},
	// Traced over untraced job p50 in the same run, minus 1.
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "none (cost of measuring)", on: "all"},
}
