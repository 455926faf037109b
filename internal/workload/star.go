package workload

import (
	"fmt"
	"strings"
)

// The star schema below is the aggregation/join benchmark workload: a fact
// table of rows rows with 100 groups, and two ten-key dimension tables. The
// fact's cids span [0, 1000) while the dimensions cover only [0, 10), so a
// fact-dimension join keeps ~1% of the fact: the shape a zone-mapped star
// join sees. cmd/aggbench times these queries over it, and the engine's
// test suite checks the same queries, over the same data, against its
// row-at-a-time reference.

// StarDDL creates the star schema's three tables.
var StarDDL = []string{
	"CREATE TABLE fact (id INTEGER, grp INTEGER, cid INTEGER, val FLOAT) SEGMENTED BY HASH(id)",
	"CREATE TABLE dim (cid INTEGER, name VARCHAR) SEGMENTED BY HASH(cid)",
	"CREATE TABLE tags (cid INTEGER, tag VARCHAR) SEGMENTED BY HASH(cid)",
}

// StarQuery is one named benchmark query over the star schema.
type StarQuery struct {
	Name  string
	Query string
}

// StarAggQueries are the aggregation queries.
var StarAggQueries = []StarQuery{
	{"group_by", "SELECT grp, COUNT(*), SUM(val), MIN(val), MAX(val) FROM fact GROUP BY grp"},
	{"global_agg", "SELECT COUNT(*), SUM(val), AVG(val) FROM fact"},
	{"filtered_group_by", "SELECT grp, SUM(val) FROM fact WHERE grp < 10 GROUP BY grp"},
}

// StarJoinQueries are the two- and three-way join queries.
var StarJoinQueries = []StarQuery{
	{"join2", "SELECT COUNT(*) FROM fact JOIN dim ON fact.cid = dim.cid"},
	{"join3", "SELECT COUNT(*) FROM fact JOIN dim ON fact.cid = dim.cid JOIN tags ON fact.cid = tags.cid"},
}

// StarCSV renders the star schema's data as CSV COPY input, one text per
// table in StarDDL order: fact holds rows rows, dim one name per key, tags
// two tags per key.
func StarCSV(rows int) (fact, dim, tags string) {
	var f, d, t strings.Builder
	f.Grow(rows * 20)
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&f, "%d,%d,%d,%d.5\n", i, i%100, i%1000, i%997)
	}
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&d, "%d,name%d\n", i, i)
		fmt.Fprintf(&t, "%d,tagA\n%d,tagB\n", i, i)
	}
	return f.String(), d.String(), t.String()
}
