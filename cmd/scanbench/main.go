// Command scanbench times the vectorized batch scan pipeline (a selective
// scan and a COUNT(*) pushdown) on a hash-segmented table, and writes the
// numbers as machine-readable JSON so CI can track scan throughput over
// time.
//
// Usage:
//
//	scanbench                       # 1M rows, 4 nodes, BENCH_scan.json
//	scanbench -rows 200000 -iters 5
//	scanbench -out results.json
//	scanbench -obs                  # also measure span+histogram overhead
//	scanbench -obs -gate            # exit non-zero if dc spooling costs >5%
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vsfabric/internal/vertica"
)

// Measurement is one timed query configuration.
type Measurement struct {
	Name     string  `json:"name"`
	Query    string  `json:"query"`
	Iters    int     `json:"iters"`
	NsPerOp  int64   `json:"ns_per_op"`
	RowsPerS float64 `json:"rows_per_s"`
}

// Results is the BENCH_scan.json document.
type Results struct {
	Rows  int           `json:"rows"`
	Nodes int           `json:"nodes"`
	Scans []Measurement `json:"scans"`
	// ObsOverheadX is collector-enabled / collector-disabled time for the
	// selective vectorized scan (only with -obs): the cost of span recording
	// plus latency histogram updates on the query path.
	ObsOverheadX float64 `json:"obs_overhead_x,omitempty"`
	// DcOverheadX is the durable-cluster scan time with data-collector
	// spooling over the same durable cluster with DisableDataCollector set
	// (only with -obs): the added cost of encoding and appending each
	// query's history records to disk. The -gate flag fails the run when
	// this exceeds 1.05.
	DcOverheadX float64 `json:"dc_overhead_x,omitempty"`
}

func buildSession(rows, nodes int, obsOn bool, dataDir string, disableDC bool) (*vertica.Session, error) {
	c, err := vertica.NewCluster(vertica.Config{Nodes: nodes, DataDir: dataDir, DisableDataCollector: disableDC})
	if err != nil {
		return nil, err
	}
	// The benchmark's contract is the observability-disabled fast path; -obs
	// re-enables the collector to measure tracing overhead instead.
	c.Obs().SetEnabled(obsOn)
	s, err := c.Connect(0)
	if err != nil {
		return nil, err
	}
	if _, err := s.Execute("CREATE TABLE bench_scan (id INTEGER, grp INTEGER, val FLOAT) SEGMENTED BY HASH(id)"); err != nil {
		return nil, err
	}
	var csv strings.Builder
	csv.Grow(rows * 16)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&csv, "%d,%d,%d.5\n", i, i%100, i%1000)
	}
	if _, err := s.CopyFrom("COPY bench_scan FROM STDIN FORMAT CSV DIRECT", strings.NewReader(csv.String())); err != nil {
		return nil, err
	}
	return s, nil
}

func timeQuery(s *vertica.Session, name, q string, rows, iters int) (Measurement, error) {
	// One warm-up run, then the timed loop.
	if _, err := s.Execute(q); err != nil {
		return Measurement{}, fmt.Errorf("%s: %w", name, err)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := s.Execute(q); err != nil {
			return Measurement{}, fmt.Errorf("%s: %w", name, err)
		}
	}
	elapsed := time.Since(start)
	return Measurement{
		Name:     name,
		Query:    q,
		Iters:    iters,
		NsPerOp:  elapsed.Nanoseconds() / int64(iters),
		RowsPerS: float64(rows) * float64(iters) / elapsed.Seconds(),
	}, nil
}

func run() error {
	rows := flag.Int("rows", 1_000_000, "table size")
	nodes := flag.Int("nodes", 4, "cluster size")
	iters := flag.Int("iters", 10, "timed iterations per configuration")
	out := flag.String("out", "BENCH_scan.json", "output path")
	obsOn := flag.Bool("obs", false, "also measure span+histogram recording overhead")
	gate := flag.Bool("gate", false, "with -obs: exit non-zero if dc spooling overhead exceeds 5%")
	flag.Parse()

	const (
		selective = "SELECT id, val FROM bench_scan WHERE grp = 7"
		countAll  = "SELECT COUNT(*) FROM bench_scan"
	)
	res := Results{Rows: *rows, Nodes: *nodes}
	for _, cfg := range []struct{ name, query string }{
		{"scan_vectorized", selective},
		{"count_vectorized", countAll},
	} {
		// The headline measurements always time the observability-disabled
		// fast path; overhead is measured separately below.
		s, err := buildSession(*rows, *nodes, false, "", false)
		if err != nil {
			return err
		}
		m, err := timeQuery(s, cfg.name, cfg.query, *rows, *iters)
		s.Close()
		if err != nil {
			return err
		}
		res.Scans = append(res.Scans, m)
		fmt.Printf("%-22s %12d ns/op %14.0f rows/s\n", m.Name, m.NsPerOp, m.RowsPerS)
	}
	if *obsOn {
		// Same query, same engine configuration; the only variable is whether
		// the collector records spans and updates latency histograms.
		var pair [2]Measurement
		for i, on := range []bool{false, true} {
			name := "scan_obs_off"
			if on {
				name = "scan_obs_on"
			}
			s, err := buildSession(*rows, *nodes, on, "", false)
			if err != nil {
				return err
			}
			m, err := timeQuery(s, name, selective, *rows, *iters)
			s.Close()
			if err != nil {
				return err
			}
			pair[i] = m
			res.Scans = append(res.Scans, m)
			fmt.Printf("%-22s %12d ns/op %14.0f rows/s\n", m.Name, m.NsPerOp, m.RowsPerS)
		}
		if pair[0].NsPerOp > 0 {
			res.ObsOverheadX = float64(pair[1].NsPerOp) / float64(pair[0].NsPerOp)
		}
		fmt.Printf("observability overhead: %.3fx\n", res.ObsOverheadX)

		// Durable data-collector overhead: two durable clusters running the
		// same obs-enabled scan, identical except that one spools history to
		// DataDir/dc and the other opts out via DisableDataCollector. Each
		// configuration keeps its minimum single-query time across alternating
		// repeats — noise (scheduler hiccups, container-layout variance
		// between cluster builds) is one-sided slowness, so the per-query
		// minimum is the robust estimate of the true cost on each side.
		const repeats = 3
		dcIters := *iters
		if dcIters < 20 {
			dcIters = 20
		}
		measure := func(disableDC bool, name string) (Measurement, error) {
			dir, err := os.MkdirTemp("", "scanbench-dc-*")
			if err != nil {
				return Measurement{}, err
			}
			defer os.RemoveAll(dir)
			s, err := buildSession(*rows, *nodes, true, dir, disableDC)
			if err != nil {
				return Measurement{}, err
			}
			defer s.Close()
			if _, err := s.Execute(selective); err != nil { // warm-up
				return Measurement{}, fmt.Errorf("%s: %w", name, err)
			}
			best := int64(0)
			for i := 0; i < dcIters; i++ {
				t0 := time.Now()
				if _, err := s.Execute(selective); err != nil {
					return Measurement{}, fmt.Errorf("%s: %w", name, err)
				}
				if ns := time.Since(t0).Nanoseconds(); best == 0 || ns < best {
					best = ns
				}
			}
			return Measurement{
				Name:     name,
				Query:    selective,
				Iters:    dcIters,
				NsPerOp:  best,
				RowsPerS: float64(*rows) / (float64(best) / 1e9),
			}, nil
		}
		var off, spool Measurement
		for r := 0; r < repeats; r++ {
			o, err := measure(true, "scan_obs_dc_off")
			if err != nil {
				return err
			}
			sp, err := measure(false, "scan_obs_dc_spool")
			if err != nil {
				return err
			}
			if off.NsPerOp == 0 || o.NsPerOp < off.NsPerOp {
				off = o
			}
			if spool.NsPerOp == 0 || sp.NsPerOp < spool.NsPerOp {
				spool = sp
			}
		}
		res.Scans = append(res.Scans, off, spool)
		fmt.Printf("%-22s %12d ns/op %14.0f rows/s\n", off.Name, off.NsPerOp, off.RowsPerS)
		fmt.Printf("%-22s %12d ns/op %14.0f rows/s\n", spool.Name, spool.NsPerOp, spool.RowsPerS)
		if off.NsPerOp > 0 {
			res.DcOverheadX = float64(spool.NsPerOp) / float64(off.NsPerOp)
		}
		fmt.Printf("dc spooling overhead: %.3fx\n", res.DcOverheadX)
		if *gate && res.DcOverheadX > 1.05 {
			return fmt.Errorf("dc spooling overhead %.3fx exceeds the 1.05x gate", res.DcOverheadX)
		}
	}

	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scanbench:", err)
		os.Exit(1)
	}
}
