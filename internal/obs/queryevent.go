package obs

import "time"

// QueryEventType names an engine-emitted query event: a typed, structured
// explanation of *why* a statement behaved the way it did (fell off a fast
// path, waited for admission, crossed a latency threshold). The taxonomy is
// closed — event emission stays typed end to end, which is what lets the
// v_monitor.query_events table, PROFILE output, and the data collector all
// agree on meaning without parsing free-form strings.
type QueryEventType string

// The query-event taxonomy. Each type is raised from exactly one engine
// layer; Detail carries the specifics.
const (
	// EvGroupByFallback: a GROUP BY / aggregate executed on the row-at-a-time
	// path instead of the vectorized hash-aggregation kernels (a join, a view
	// or system table, or an ineligible shape such as an expression argument).
	EvGroupByFallback QueryEventType = "GROUP_BY_FALLBACK_ROW_PATH"
	// EvZoneMapPruneSkipped: a scan had zone-map-prunable predicates but
	// container pruning could not run (disabled by config, or containers
	// lack column statistics).
	EvZoneMapPruneSkipped QueryEventType = "ZONEMAP_PRUNE_SKIPPED"
	// EvPoolQueueWait: a statement waited in its resource pool's admission
	// queue before running. Value is the wait in microseconds.
	EvPoolQueueWait QueryEventType = "POOL_QUEUE_WAIT"
	// EvJoinBuildSideLarge: a hash join built its table over more rows than
	// the configured threshold — the planner picked (or was forced into) an
	// expensive build side.
	EvJoinBuildSideLarge QueryEventType = "JOIN_BUILD_SIDE_LARGE"
	// EvWALFsyncStall: one WAL fsync took longer than the configured stall
	// threshold. Value is the fsync duration in microseconds.
	EvWALFsyncStall QueryEventType = "WAL_FSYNC_STALL"
	// EvSlowQuery: a statement ran longer than the configured slow-query
	// threshold. Value is the duration in microseconds.
	EvSlowQuery QueryEventType = "SLOW_QUERY"
)

// QueryEvent is one engine-emitted query event, surfaced through
// v_monitor.query_events, inline in PROFILE/EXPLAIN output, and spooled
// durably by the data collector.
type QueryEvent struct {
	Time    time.Time
	Type    QueryEventType
	Node    string // node that raised the event ("" if cluster-wide)
	TraceID uint64 // trace of the statement that raised it (0 if none)
	Query   string // statement source text ("" for engine-internal events)
	Detail  string
	// Value is the measured quantity that triggered the event (rows,
	// microseconds — the Type defines the unit); Threshold is the configured
	// limit it crossed (0 when the event is unconditional).
	Value     int64
	Threshold int64
}

// RecordQueryEvent retains a query event in the collector's bounded ring and
// bumps its "query_event.<TYPE>" counter.
func (c *Collector) RecordQueryEvent(ev QueryEvent) {
	if !c.enabled.Load() {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	c.mu.Lock()
	c.counters["query_event."+string(ev.Type)]++
	c.qevents.add(ev)
	c.mu.Unlock()
}

// QueryEvents returns the retained query events, oldest first.
func (c *Collector) QueryEvents() []QueryEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.qevents.snapshot()
}
