package testutil

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/qgm"
	"starmagic/internal/storage"
)

// Reference evaluates a bound QGM graph the naive way, the answer the
// engine's plans are checked against: every box in full under its
// consumer's bindings, select boxes by nested loops, with no hashing,
// index, cache or rewrite. It reads base tables through view and binds `?`
// to params. It shares only expression evaluation (exec.EvalExpr/EvalPred)
// and aggregate states (datum.AggState) with the engine, so a fault in the
// engine's operators is not also one here. Tests run it on the graph as
// bound, before any rewrite.
func Reference(g *qgm.Graph, view *storage.View, params datum.Row) ([]datum.Row, error) {
	r := &refEval{view: view, fix: map[*qgm.Box][]datum.Row{}}
	rows, err := r.box(g.Top, exec.BindParams(params))
	if err != nil {
		return nil, err
	}
	rows = slices.Clone(rows)
	slices.SortStableFunc(rows, func(x, y datum.Row) int {
		for _, o := range g.OrderBy {
			if c := datum.SortCompare(x[o.Ord], y[o.Ord]); c != 0 && o.Desc {
				return -c
			} else if c != 0 {
				return c
			}
		}
		return 0
	})
	if g.Limit >= 0 && int64(len(rows)) > g.Limit {
		rows = rows[:g.Limit]
	}
	for i, row := range rows {
		rows[i] = row[:len(row)-g.HiddenCols]
	}
	return rows, nil
}

type refEval struct {
	view *storage.View
	// fix holds, for each recursive root being iterated, the rows
	// accumulated so far: what a reference from inside its body reads.
	fix map[*qgm.Box][]datum.Row
}

// box computes every row of b under env, which binds the quantifiers b's
// subtree references from outside.
func (r *refEval) box(b *qgm.Box, env exec.Env) ([]datum.Row, error) {
	var rows []datum.Row
	var err error
	switch {
	case b.Recursive:
		return r.fixpoint(b, env)
	case b.Kind == qgm.KindBaseTable:
		rel, ok := r.view.Relation(b.Table.Name)
		if !ok {
			return nil, fmt.Errorf("reference: no table %q", b.Table.Name)
		}
		return rel.Rows(), nil
	case b.Kind == qgm.KindSelect:
		rows, err = r.sel(b, env)
	case b.Kind == qgm.KindGroupBy:
		return r.groupBy(b, env)
	case b.Kind == qgm.KindUnion:
		for _, q := range b.Quantifiers {
			in, err := r.box(q.Ranges, env)
			if err != nil {
				return nil, err
			}
			rows = append(rows, in...)
		}
	case b.Kind == qgm.KindIntersect, b.Kind == qgm.KindExcept:
		return r.setOp(b, env)
	default:
		return nil, fmt.Errorf("reference: box kind %s", b.Kind)
	}
	if err != nil || b.Distinct == qgm.DistinctPreserve {
		return rows, err
	}
	return distinct(rows), nil
}

// fixpoint iterates a recursive root: each round computes the body with the
// rows accumulated so far visible to the body's references to the root,
// until a round adds no new row (set semantics).
func (r *refEval) fixpoint(b *qgm.Box, env exec.Env) ([]datum.Row, error) {
	if rows, ok := r.fix[b]; ok {
		return rows, nil
	}
	defer delete(r.fix, b)
	r.fix[b] = nil
	for range 10000 {
		rows, err := r.sel(b, env)
		if err != nil {
			return nil, err
		}
		acc := distinct(append(r.fix[b], rows...))
		if len(acc) == len(r.fix[b]) {
			return acc, nil
		}
		r.fix[b] = acc
	}
	return nil, fmt.Errorf("reference: %q did not reach a fixpoint", b.Name)
}

// sel computes a select box by nested loops over its ForEach inputs in
// declaration order. Each predicate runs as soon as the quantifiers it
// references are bound, one over a scalar subquery once the scalars are
// bound; one over an Exists/ForAll quantifier is that quantifier's match
// predicate.
func (r *refEval) sel(b *qgm.Box, env exec.Env) ([]datum.Row, error) {
	var each, scalars, checks []*qgm.Quantifier
	level := map[*qgm.Quantifier]int{} // the depth that binds q; outer bindings are 0
	for _, q := range b.Quantifiers {
		switch q.Type {
		case qgm.ForEach:
			each = append(each, q)
			level[q] = len(each)
		case qgm.Scalar:
			scalars = append(scalars, q)
		default:
			checks = append(checks, q)
		}
	}
	for _, q := range scalars {
		level[q] = len(each) + 1 // bound after every ForEach quantifier
	}
	at := make([][]qgm.Expr, len(each)+2)
	match := map[*qgm.Quantifier][]qgm.Expr{}
	for _, p := range b.Preds {
		lv := 0
		var check *qgm.Quantifier
		qgm.VisitRefs(p, func(c *qgm.ColRef) {
			lv = max(lv, level[c.Q])
			if slices.Contains(checks, c.Q) {
				check = c.Q
			}
		})
		if check != nil {
			match[check] = append(match[check], p)
		} else {
			at[lv] = append(at[lv], p)
		}
	}
	inputs := make([][]datum.Row, len(each))
	for i, q := range each {
		var err error
		if inputs[i], err = r.box(q.Ranges, env); err != nil {
			return nil, err
		}
	}

	cur := maps.Clone(env)
	var out []datum.Row
	var loop func(i int) error
	loop = func(i int) error {
		if ok, err := allTrue(at[i], cur); !ok || err != nil {
			return err
		}
		if i < len(each) {
			for _, row := range inputs[i] {
				cur[each[i]] = row
				if err := loop(i + 1); err != nil {
					return err
				}
			}
			delete(cur, each[i])
			return nil
		}
		if i == len(each) {
			for _, q := range scalars {
				rows, err := r.box(q.Ranges, cur)
				switch {
				case err != nil:
					return err
				case len(rows) > 1:
					return fmt.Errorf("reference: scalar subquery returned %d rows", len(rows))
				case len(rows) == 1:
					cur[q] = rows[0]
				default:
					cur[q] = make(datum.Row, len(q.Ranges.Output))
					for j, oc := range q.Ranges.Output {
						cur[q][j] = datum.NullOf(oc.Type)
					}
				}
			}
			return loop(i + 1)
		}
		for _, q := range checks {
			rows, err := r.box(q.Ranges, cur)
			if err != nil {
				return err
			}
			// A witness (Exists) or a violation (ForAll) of the match
			// predicates, where UNKNOWN does not satisfy, decides q.
			decided := false
			for _, row := range rows {
				cur[q] = row
				ok, err := allTrue(match[q], cur)
				if err != nil {
					return err
				}
				if decided = ok == (q.Type == qgm.Exists); decided {
					break
				}
			}
			delete(cur, q)
			if decided != (q.Type == qgm.Exists) {
				return nil
			}
		}
		row := make(datum.Row, len(b.Output))
		for j, oc := range b.Output {
			v, err := exec.EvalExpr(oc.Expr, cur)
			if err != nil {
				return err
			}
			row[j] = v
		}
		out = append(out, row)
		return nil
	}
	return out, loop(0)
}

// groupBy computes a group-by box: one row per distinct key, groups in
// order of first appearance, keys then aggregate results; one row of empty
// aggregates when there is no key and no input.
func (r *refEval) groupBy(b *qgm.Box, env exec.Env) ([]datum.Row, error) {
	q := b.Quantifiers[0]
	in, err := r.box(q.Ranges, env)
	if err != nil {
		return nil, err
	}
	groups := map[string][]datum.Row{} // key -> the group's input rows
	var keys []datum.Row
	cur := maps.Clone(env)
	for _, row := range in {
		cur[q] = row
		key := make(datum.Row, len(b.GroupBy))
		for i, e := range b.GroupBy {
			if key[i], err = exec.EvalExpr(e, cur); err != nil {
				return nil, err
			}
		}
		if _, ok := groups[keyOf(key)]; !ok {
			keys = append(keys, key)
		}
		groups[keyOf(key)] = append(groups[keyOf(key)], row)
	}
	if len(keys) == 0 && len(b.GroupBy) == 0 {
		keys = []datum.Row{nil}
	}
	out := make([]datum.Row, len(keys))
	for g, key := range keys {
		out[g] = append(datum.Row(nil), key...)
		for _, a := range b.Aggs {
			st, seen := datum.NewAggState(a.Kind), map[string]bool{}
			for _, row := range groups[keyOf(key)] {
				cur[q] = row
				var v datum.D
				if a.Arg != nil {
					if v, err = exec.EvalExpr(a.Arg, cur); err != nil {
						return nil, err
					}
				}
				if a.Distinct && (v.IsNull() || seen[keyOf(datum.Row{v})]) { // each non-NULL value once
					continue
				}
				seen[keyOf(datum.Row{v})] = true
				if err := st.Add(v); err != nil {
					return nil, err
				}
			}
			out[g] = append(out[g], st.Result())
		}
	}
	return out, nil
}

// setOp computes INTERSECT and EXCEPT ALL as the minimum and the difference
// of multiplicities, and their DISTINCT forms as each qualifying row once.
func (r *refEval) setOp(b *qgm.Box, env exec.Env) ([]datum.Row, error) {
	left, errL := r.box(b.Quantifiers[0].Ranges, env)
	right, errR := r.box(b.Quantifiers[1].Ranges, env)
	if err := errors.Join(errL, errR); err != nil {
		return nil, err
	}
	count := map[string]int{}
	for _, row := range right {
		count[keyOf(row)]++
	}
	all := b.Distinct == qgm.DistinctPreserve
	var out []datum.Row
	for _, row := range left {
		k := keyOf(row)
		switch {
		case b.Kind == qgm.KindIntersect && count[k] > 0:
			out = append(out, row)
			if all {
				count[k]--
			}
		case b.Kind == qgm.KindExcept && count[k] == 0:
			out = append(out, row)
		case b.Kind == qgm.KindExcept && all:
			count[k]--
		}
	}
	if all {
		return out, nil
	}
	return distinct(out), nil
}

// distinct keeps the first row of each set of equal rows.
func distinct(rows []datum.Row) []datum.Row {
	seen := map[string]bool{}
	var out []datum.Row
	for _, row := range rows {
		if k := keyOf(row); !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	return out
}

// keyOf encodes a row; rows equal under DISTINCT have equal keys.
func keyOf(row datum.Row) string { return string(datum.AppendKey(nil, row)) }

// allTrue reports whether every predicate is TRUE under env.
func allTrue(preds []qgm.Expr, env exec.Env) (bool, error) {
	for _, p := range preds {
		tv, err := exec.EvalPred(p, env)
		if err != nil || tv != datum.True {
			return false, err
		}
	}
	return true, nil
}
