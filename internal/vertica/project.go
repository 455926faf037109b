package vertica

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"vsfabric/internal/expr"
	"vsfabric/internal/types"
	"vsfabric/internal/vsql"
)

// project applies the SELECT list — star expansion, scalar expressions,
// aggregates with optional GROUP BY — and the LIMIT clause. qp, when non-nil,
// receives the group-by operator's profile row.
func project(st *vsql.Select, rows []types.Row, schema types.Schema, qp *queryProfile) ([]types.Row, types.Schema, error) {
	var out []types.Row
	var outSchema types.Schema
	var err error
	if hasAggregates(st) || len(st.GroupBy) > 0 {
		aggStart := profClock(qp)
		out, outSchema, err = aggregate(st, rows, schema)
		if qp != nil && err == nil {
			qp.add(opStat{
				name: "group-by", rowsIn: int64(len(rows)), rowsOut: int64(len(out)),
				resRows: int64(len(rows)), dur: time.Since(aggStart),
				detail: "row-at-a-time fallback",
			})
		}
	} else {
		out, outSchema, err = projectScalar(st, rows, schema)
	}
	if err != nil {
		return nil, types.Schema{}, err
	}
	if len(st.OrderBy) > 0 {
		if err := orderRows(out, outSchema, st.OrderBy); err != nil {
			return nil, types.Schema{}, err
		}
	}
	if st.Limit >= 0 && int64(len(out)) > st.Limit {
		out = out[:st.Limit]
	}
	return out, outSchema, nil
}

// orderRows sorts the result set by the ORDER BY keys (NULLs first, per the
// engine's comparison semantics).
func orderRows(rows []types.Row, schema types.Schema, keys []vsql.OrderItem) error {
	idx := make([]int, len(keys))
	for i, k := range keys {
		j := schema.ColIndex(k.Col)
		if j < 0 {
			return fmt.Errorf("vertica: ORDER BY column %q not in result", k.Col)
		}
		idx[i] = j
	}
	sort.SliceStable(rows, func(a, b int) bool {
		for i, k := range keys {
			c := types.Compare(rows[a][idx[i]], rows[b][idx[i]])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

// project2 is project for view expansion (the view's own SELECT list shapes
// the rows the outer query sees).
func project2(st *vsql.Select, rows []types.Row, schema types.Schema) ([]types.Row, types.Schema, error) {
	return project(st, rows, schema, nil)
}

func projectScalar(st *vsql.Select, rows []types.Row, schema types.Schema) ([]types.Row, types.Schema, error) {
	// Fast path: SELECT * alone keeps rows as-is.
	if len(st.Items) == 1 && st.Items[0].Star {
		return rows, schema, nil
	}
	outSchema, evals, err := selectShape(st.Items, schema)
	if err != nil {
		return nil, types.Schema{}, err
	}
	out := make([]types.Row, len(rows))
	for i, r := range rows {
		row := make(types.Row, len(evals))
		for j, ev := range evals {
			v, err := ev(r)
			if err != nil {
				return nil, types.Schema{}, err
			}
			row[j] = v
		}
		out[i] = row
	}
	typeFuncColumns(st.Items, len(schema.Cols), outSchema, out)
	return out, outSchema, nil
}

// typeFuncColumns types each function-call column of a projection from its
// non-NULL values: a builtin or UDx declares no return type (VERSION()
// returns a string, LAST_EPOCH() an integer, a scoring UDx a float), and a
// column typed FLOAT would coerce a string to NaN on the way to the wire.
// A column with no non-NULL value, or whose values disagree in type (a UDx
// returning INTEGER for some rows and FLOAT for others), keeps inferType's
// FLOAT, so no value is truncated to the first row's type.
func typeFuncColumns(items []vsql.SelectItem, inWidth int, schema types.Schema, rows []types.Row) {
	j := 0
	for _, it := range items {
		if it.Star {
			j += inWidth
			continue
		}
		if _, ok := it.Expr.(*expr.FuncCall); ok {
			schema.Cols[j].T = valuesType(rows, j, schema.Cols[j].T)
		}
		j++
	}
}

// valuesType returns the one type every non-NULL value in column j has, or
// def when there is none or they differ.
func valuesType(rows []types.Row, j int, def types.Type) types.Type {
	t, seen := def, false
	for _, r := range rows {
		if r[j].Null {
			continue
		}
		if !seen {
			t, seen = r[j].T, true
		} else if r[j].T != t {
			return def
		}
	}
	return t
}

// selectShape resolves non-aggregate select items to output columns and
// row-evaluator closures.
func selectShape(items []vsql.SelectItem, schema types.Schema) (types.Schema, []func(types.Row) (types.Value, error), error) {
	var outSchema types.Schema
	var evals []func(types.Row) (types.Value, error)
	for _, it := range items {
		if it.Star {
			for ci, c := range schema.Cols {
				ci := ci
				outSchema.Cols = append(outSchema.Cols, c)
				evals = append(evals, func(r types.Row) (types.Value, error) { return r[ci], nil })
			}
			continue
		}
		e := it.Expr
		for _, c := range e.Columns(nil) {
			if schema.ColIndex(c) < 0 {
				return types.Schema{}, nil, fmt.Errorf("vertica: column %q does not exist", c)
			}
		}
		name := it.Alias
		if name == "" {
			name = exprName(e)
		}
		outSchema.Cols = append(outSchema.Cols, types.Column{Name: name, T: inferType(e, schema)})
		sc := schema
		evals = append(evals, func(r types.Row) (types.Value, error) { return e.Eval(r, &sc) })
	}
	return outSchema, evals, nil
}

func exprName(e expr.Expr) string {
	switch n := e.(type) {
	case *expr.Col:
		return n.Name
	case *expr.FuncCall:
		return strings.ToLower(n.Name)
	case *expr.HashFn:
		return "hash"
	case *expr.ModFn:
		return "mod"
	default:
		return "?column?"
	}
}

// inferType best-effort types an expression for result schemas.
func inferType(e expr.Expr, schema types.Schema) types.Type {
	switch n := e.(type) {
	case *expr.Col:
		if i := schema.ColIndex(n.Name); i >= 0 {
			return schema.Cols[i].T
		}
		return types.Unknown
	case *expr.Lit:
		return n.V.T
	case *expr.HashFn, *expr.ModFn:
		return types.Int64
	case *expr.Cmp, *expr.And, *expr.Or, *expr.Not, *expr.IsNull:
		return types.Bool
	case *expr.Arith:
		lt, rt := inferType(n.L, schema), inferType(n.R, schema)
		if lt == types.Int64 && rt == types.Int64 {
			return types.Int64
		}
		return types.Float64
	case *expr.FuncCall:
		return types.Float64 // scoring UDxs return numbers; see typeFuncColumns
	default:
		return types.Unknown
	}
}

// aggState is one aggregate accumulator.
type aggState struct {
	count   int64
	sum     float64
	sumInt  int64
	intSum  bool
	min     types.Value
	max     types.Value
	seenAny bool
}

func (a *aggState) update(fn vsql.AggFn, v types.Value, countStar bool) {
	if fn == vsql.AggCount {
		if countStar || !v.Null {
			a.count++
		}
		return
	}
	if v.Null {
		return
	}
	if !a.seenAny {
		a.min, a.max = v, v
		a.intSum = v.T == types.Int64
		a.seenAny = true
	} else {
		if types.Compare(v, a.min) < 0 {
			a.min = v
		}
		if types.Compare(v, a.max) > 0 {
			a.max = v
		}
	}
	a.count++
	a.sum += v.AsFloat()
	if v.T == types.Int64 {
		a.sumInt += v.I
	} else {
		a.intSum = false
	}
}

func (a *aggState) result(fn vsql.AggFn) types.Value {
	switch fn {
	case vsql.AggCount:
		return types.IntValue(a.count)
	case vsql.AggSum:
		if !a.seenAny {
			return types.NullValue(types.Float64)
		}
		if a.intSum {
			return types.IntValue(a.sumInt)
		}
		return types.FloatValue(a.sum)
	case vsql.AggAvg:
		if a.count == 0 {
			return types.NullValue(types.Float64)
		}
		return types.FloatValue(a.sum / float64(a.count))
	case vsql.AggMin:
		if !a.seenAny {
			return types.NullValue(types.Float64)
		}
		return a.min
	case vsql.AggMax:
		if !a.seenAny {
			return types.NullValue(types.Float64)
		}
		return a.max
	default:
		return types.NullValue(types.Float64)
	}
}

// aggItemPlan is one select item of an aggregation: an aggregate function
// over an argument expression, or (groupCol >= 0) a plain grouping column.
type aggItemPlan struct {
	agg      vsql.AggFn
	arg      expr.Expr
	groupCol int // index into groupIdx for plain columns
}

// buildAggPlan validates an aggregation's select items against the input
// schema and builds the item plans, the GROUP BY column indexes, and the
// output schema. Shared by the row-at-a-time aggregate() and the vectorized
// pushdown (tryVectorizedAgg) so both type results identically.
func buildAggPlan(st *vsql.Select, schema types.Schema) ([]aggItemPlan, []int, types.Schema, error) {
	groupIdx := make([]int, 0, len(st.GroupBy))
	for _, g := range st.GroupBy {
		i := schema.ColIndex(g)
		if i < 0 {
			return nil, nil, types.Schema{}, fmt.Errorf("vertica: GROUP BY column %q not found", g)
		}
		groupIdx = append(groupIdx, i)
	}
	var outSchema types.Schema
	plans := make([]aggItemPlan, 0, len(st.Items))
	for _, it := range st.Items {
		switch {
		case it.Star:
			return nil, nil, types.Schema{}, fmt.Errorf("vertica: SELECT * cannot be mixed with aggregates")
		case it.Agg != "":
			name := it.Alias
			if name == "" {
				name = strings.ToLower(string(it.Agg))
			}
			t := types.Float64
			if it.Agg == vsql.AggCount {
				t = types.Int64
			} else if it.Arg != nil {
				at := inferType(it.Arg, schema)
				if it.Agg == vsql.AggMin || it.Agg == vsql.AggMax || (it.Agg == vsql.AggSum && at == types.Int64) {
					t = at
				}
			}
			outSchema.Cols = append(outSchema.Cols, types.Column{Name: name, T: t})
			plans = append(plans, aggItemPlan{agg: it.Agg, arg: it.Arg, groupCol: -1})
		default:
			col, ok := it.Expr.(*expr.Col)
			if !ok {
				return nil, nil, types.Schema{}, fmt.Errorf("vertica: non-aggregate select item must be a grouping column")
			}
			gi := -1
			for k, idx := range groupIdx {
				if schema.ColIndex(col.Name) == idx {
					gi = k
					break
				}
			}
			if gi < 0 {
				return nil, nil, types.Schema{}, fmt.Errorf("vertica: column %q must appear in GROUP BY", col.Name)
			}
			name := it.Alias
			if name == "" {
				name = col.Name
			}
			outSchema.Cols = append(outSchema.Cols, types.Column{Name: name, T: schema.Cols[groupIdx[gi]].T})
			plans = append(plans, aggItemPlan{groupCol: gi})
		}
	}
	return plans, groupIdx, outSchema, nil
}

// aggregate evaluates aggregates with optional GROUP BY. Non-aggregate items
// must be grouping columns.
func aggregate(st *vsql.Select, rows []types.Row, schema types.Schema) ([]types.Row, types.Schema, error) {
	plans, groupIdx, outSchema, err := buildAggPlan(st, schema)
	if err != nil {
		return nil, types.Schema{}, err
	}

	type group struct {
		key    []types.Value
		states []*aggState
	}
	groups := make(map[string]*group)
	var order []string
	keyOf := func(r types.Row) (string, []types.Value) {
		if len(groupIdx) == 0 {
			return "", nil
		}
		vals := make([]types.Value, len(groupIdx))
		var sb strings.Builder
		for k, idx := range groupIdx {
			vals[k] = r[idx]
			// The null flag keeps a NULL key distinct from the string "NULL"
			// (both render as "NULL").
			if r[idx].Null {
				sb.WriteByte('n')
			} else {
				sb.WriteByte('v')
			}
			sb.WriteString(r[idx].String())
			sb.WriteByte(0)
		}
		return sb.String(), vals
	}
	ensure := func(key string, vals []types.Value) *group {
		g, ok := groups[key]
		if !ok {
			g = &group{key: vals, states: make([]*aggState, len(plans))}
			for i := range g.states {
				g.states[i] = &aggState{}
			}
			groups[key] = g
			order = append(order, key)
		}
		return g
	}
	if len(groupIdx) == 0 {
		ensure("", nil) // global aggregate over zero rows still yields one row
	}
	for _, r := range rows {
		key, vals := keyOf(r)
		g := ensure(key, vals)
		for i, pl := range plans {
			if pl.groupCol >= 0 {
				continue
			}
			var v types.Value
			if pl.arg != nil {
				var err error
				v, err = pl.arg.Eval(r, &schema)
				if err != nil {
					return nil, types.Schema{}, err
				}
			}
			g.states[i].update(pl.agg, v, pl.arg == nil)
		}
	}
	out := make([]types.Row, 0, len(order))
	for _, key := range order {
		g := groups[key]
		row := make(types.Row, len(plans))
		for i, pl := range plans {
			if pl.groupCol >= 0 {
				row[i] = g.key[pl.groupCol]
			} else {
				row[i] = g.states[i].result(pl.agg)
			}
		}
		out = append(out, row)
	}
	return out, outSchema, nil
}
