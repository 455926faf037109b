// Command aggbench times the vectorized hash-aggregation and hash-join
// pipeline on the star-schema workload (internal/workload) and writes the
// numbers as machine-readable JSON (BENCH_agg.json, BENCH_join.json) so the
// perf trajectory can be tracked.
//
// Usage:
//
//	aggbench                        # 1M fact rows, 4 nodes
//	aggbench -rows 200000 -iters 5
//	aggbench -smoke                 # small scale (50k rows, 3 iterations)
//
// Result correctness is not checked here: the engine's test
// TestStarWorkloadMatchesReference (make bench-smoke) diffs these queries,
// over the same data shape, against the row-at-a-time reference cell by
// cell.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vsfabric/internal/vertica"
	"vsfabric/internal/workload"
)

// Measurement is one timed query.
type Measurement struct {
	Name     string  `json:"name"`
	Query    string  `json:"query"`
	Iters    int     `json:"iters"`
	NsPerOp  int64   `json:"ns_per_op"`
	RowsPerS float64 `json:"rows_per_s"`
}

// Results is the BENCH_agg.json / BENCH_join.json document.
type Results struct {
	Rows    int           `json:"rows"`
	Nodes   int           `json:"nodes"`
	Queries []Measurement `json:"queries"`
}

func buildSession(rows, nodes int) (*vertica.Session, error) {
	c, err := vertica.NewCluster(vertica.Config{Nodes: nodes})
	if err != nil {
		return nil, err
	}
	c.Obs().SetEnabled(false)
	s, err := c.Connect(0)
	if err != nil {
		return nil, err
	}
	for _, q := range workload.StarDDL {
		if _, err := s.Execute(q); err != nil {
			return nil, err
		}
	}
	fact, dim, tags := workload.StarCSV(rows)
	for _, load := range []struct{ table, csv string }{{"fact", fact}, {"dim", dim}, {"tags", tags}} {
		if _, err := s.CopyFrom("COPY "+load.table+" FROM STDIN FORMAT CSV DIRECT", strings.NewReader(load.csv)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func timeQuery(s *vertica.Session, name, q string, rows, iters int) (Measurement, error) {
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

// runSuite times every query and writes one JSON document.
func runSuite(s *vertica.Session, queries []workload.StarQuery, rows, nodes, iters int, out string) error {
	res := Results{Rows: rows, Nodes: nodes}
	for _, q := range queries {
		m, err := timeQuery(s, q.Name, q.Query, rows, iters)
		if err != nil {
			return err
		}
		res.Queries = append(res.Queries, m)
		fmt.Printf("%-20s %12d ns/op %14.0f rows/s\n", m.Name, m.NsPerOp, m.RowsPerS)
	}
	data, err := json.MarshalIndent(&res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

func run() error {
	rows := flag.Int("rows", 1_000_000, "fact table size")
	nodes := flag.Int("nodes", 4, "cluster size")
	iters := flag.Int("iters", 10, "timed iterations per query")
	outAgg := flag.String("out-agg", "BENCH_agg.json", "aggregation results path")
	outJoin := flag.String("out-join", "BENCH_join.json", "join results path")
	smoke := flag.Bool("smoke", false, "small-scale run (50k rows, 3 iterations)")
	flag.Parse()

	if *smoke {
		*rows = min(*rows, 50_000)
		*iters = min(*iters, 3)
	}

	s, err := buildSession(*rows, *nodes)
	if err != nil {
		return err
	}
	defer s.Close()
	if err := runSuite(s, workload.StarAggQueries, *rows, *nodes, *iters, *outAgg); err != nil {
		return err
	}
	return runSuite(s, workload.StarJoinQueries, *rows, *nodes, *iters, *outJoin)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "aggbench:", err)
		os.Exit(1)
	}
}
