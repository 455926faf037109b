package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"time"

	"vsfabric/internal/server"
	"vsfabric/internal/vertica"
)

const (
	numNodes   = 4
	srcTable   = "fabric_src"
	tableRows  = 1_000_000
	loadBatch  = 62_500 // rows per COPY DIRECT at set-up: 16 ROS containers per node
	s2vTarget  = "s2v_target"
	shortTable = "short_target"
)

// fabric is one running cluster: four nodes in this process, each behind
// its own TCP listener, with the source table loaded and moved out to ROS.
type fabric struct {
	dir     string
	cl      *vertica.Cluster
	servers []*server.Server
	// direct dials the listeners themselves.
	direct *server.DialConnector
	// admin is an in-process session the harness uses for set-up DDL,
	// result checks and the leak check; jobs never use it.
	admin *vertica.Session
}

// startFabric builds a fresh durable cluster under dir (fsync-on-commit
// WAL, no automatic moveout), starts a listener per node, and loads
// tableRows generated rows into srcTable in contiguous id batches, each a
// COPY DIRECT, before moving everything out to ROS. sum receives the
// checksum of the loaded rows.
func startFabric(dir string, gen rowGen, sum *checksum) (*fabric, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cl, err := vertica.NewCluster(vertica.Config{Nodes: numNodes, KSafety: 0, DataDir: dir})
	if err != nil {
		return nil, err
	}
	f := &fabric{dir: dir, cl: cl, direct: &server.DialConnector{Endpoints: map[string]string{}}}
	for i := 0; i < numNodes; i++ {
		srv := server.New(cl, i)
		ep, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, err
		}
		f.servers = append(f.servers, srv)
		f.direct.Endpoints[cl.Node(i).Addr] = ep
	}
	if f.admin, err = cl.Connect(0); err != nil {
		f.close()
		return nil, err
	}
	if err := f.exec(tableDDL(srcTable)); err != nil {
		f.close()
		return nil, err
	}
	var buf []byte
	for lo := int64(0); lo < tableRows; lo += loadBatch {
		buf = gen.appendCSV(buf[:0], lo, min(lo+loadBatch, tableRows), sum)
		res, err := f.admin.CopyFrom("COPY "+srcTable+" FROM STDIN FORMAT CSV DIRECT", bytes.NewReader(buf))
		if err != nil {
			f.close()
			return nil, fmt.Errorf("loading %s: %w", srcTable, err)
		}
		if want := min(loadBatch, tableRows-lo); res.Copy == nil || res.Copy.Loaded != want {
			f.close()
			return nil, fmt.Errorf("loading %s: COPY reported %+v, want %d rows loaded", srcTable, res.Copy, want)
		}
	}
	if err := cl.Moveout(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// exec runs harness SQL on the admin session.
func (f *fabric) exec(sql string) error {
	if _, err := f.admin.Execute(sql); err != nil {
		return fmt.Errorf("%s: %w", sql, err)
	}
	return nil
}

// query runs harness SQL on the admin session and returns the result.
func (f *fabric) query(sql string) (*vertica.Result, error) {
	res, err := f.admin.Execute(sql)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sql, err)
	}
	return res, nil
}

// intValue runs a single-value query.
func (f *fabric) intValue(sql string) (int64, error) {
	res, err := f.query(sql)
	if err != nil {
		return 0, err
	}
	v, err := res.Value()
	if err != nil {
		return 0, fmt.Errorf("%s: %w", sql, err)
	}
	return v.AsInt(), nil
}

// openSessions reports the open session count of every node.
func (f *fabric) openSessions() []int {
	out := make([]int, numNodes)
	for i := range out {
		out[i] = f.cl.OpenSessions(i)
	}
	return out
}

// leaks is what the leak check found; every count should be zero.
type leaks struct {
	Sessions   int // sessions above the baseline, summed over nodes
	TempTables []string
	PoolsBusy  int // running plus queued statements over all pools
}

func (l leaks) clean() bool { return l.Sessions == 0 && len(l.TempTables) == 0 && l.PoolsBusy == 0 }

func (l leaks) String() string {
	return fmt.Sprintf("sessions_above_baseline=%d s2v_temp_tables=%d pool_running_or_queued=%d %v",
		l.Sessions, len(l.TempTables), l.PoolsBusy, l.TempTables)
}

// checkLeaks reads, from outside the connector, whether any job left
// sessions, S2V bookkeeping tables or pool grants behind. Sessions close
// asynchronously on the server side once a client hangs up, so the session
// count gets a short grace period to settle.
func (f *fabric) checkLeaks(baseline []int) (leaks, error) {
	var l leaks
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.Sessions = 0
		for i, n := range f.openSessions() {
			if n > baseline[i] {
				l.Sessions += n - baseline[i]
			}
		}
		if l.Sessions == 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := f.query("SELECT table_name FROM v_catalog.tables")
	if err != nil {
		return l, err
	}
	for _, r := range res.Rows {
		name := r[0].S
		for _, prefix := range []string{"s2v_stage_", "s2v_task_status_", "s2v_last_committer_"} {
			if strings.HasPrefix(name, prefix) {
				l.TempTables = append(l.TempTables, name)
			}
		}
	}
	res, err = f.query("SELECT running_count, queue_length FROM v_monitor.resource_pools")
	if err != nil {
		return l, err
	}
	for _, r := range res.Rows {
		l.PoolsBusy += int(r[0].I + r[1].I)
	}
	return l, nil
}

// close stops the listeners and the cluster and removes the data
// directory. A listener waits for its connections to end; one a job leaked
// would wait forever, so close gives up after a bound and reports it.
func (f *fabric) close() error {
	if f.admin != nil {
		f.admin.Close()
		f.admin = nil
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, s := range f.servers {
			s.Close()
		}
	}()
	var err error
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		err = fmt.Errorf("listeners still serving connections 10s after the last job")
	}
	if cerr := f.cl.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(f.dir); rerr != nil && err == nil {
		err = rerr
	}
	return err
}
