package core

import (
	"fmt"
	"testing"

	"vsfabric/internal/client"
	"vsfabric/internal/spark"
)

// TestS2VJobIdentityAcrossSources is the regression test for default job
// names colliding across sources: each DefaultSource numbered its jobs from
// 1, so a second source on the same cluster (a restarted driver, another
// Spark application) reused s2v_job_1 in the permanent status table, and
// its save committed every row and then failed. Default names must be
// unique across sources; an explicit job name is kept as given.
func TestS2VJobIdentityAcrossSources(t *testing.T) {
	h := newHarness(t, 2, 2, nil)
	for i := 0; i < 3; i++ {
		src := NewDefaultSource(client.InProc(h.cluster))
		table := fmt.Sprintf("t%d", i)
		if err := src.SaveRelation(h.sc, spark.SaveOverwrite, loadOpts(h, table, 2), testDF(h, 100, 2)); err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		if got := h.count(t, table); got != 100 {
			t.Fatalf("source %d: %s has %d rows, want 100", i, table, got)
		}
	}
	if got := h.count(t, JobStatusTable); got != 3 {
		t.Errorf("%s has %d rows, want one per job (3)", JobStatusTable, got)
	}

	opts := loadOpts(h, "named", 2)
	opts["jobName"] = "nightly_load"
	if err := NewDefaultSource(client.InProc(h.cluster)).SaveRelation(h.sc, spark.SaveOverwrite, opts, testDF(h, 10, 2)); err != nil {
		t.Fatal(err)
	}
	if got := h.count(t, JobStatusTable+" WHERE job_name = 'nightly_load'"); got != 1 {
		t.Errorf("explicit job name: %d status rows, want 1", got)
	}
}
