// Vectorized hash aggregation: a group-by whose input is a vectorized select
// pipeline pulls row-id batches (vecSelectOp.nextIDs) instead of projected
// rows and folds the referenced columns — driving-scan columns directly,
// hash-stage columns through the matched build-row ids — into typed
// accumulators indexed by dense group ids from a fixed-width key table. No
// datum.Row is built per input row, nothing is bound in an Env, and no
// expression is interpreted; the row interpreter runs once per *group*, to
// render the key values of a group's first row.
//
// Results are bit-identical to the row path: groups come out in first-seen
// order (group ids are assigned in input order) and every accumulator adds
// in input order (batches arrive in pipeline order and the kernels walk them
// front to back). Anything the compile cannot prove — DISTINCT aggregates,
// more than vec.MaxKeyCols keys, keys or arguments that are not plain columns
// or compiled numeric expressions, a non-columnar build side behind a
// referenced column — falls back to groupByOp.
package exec

import (
	"time"

	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/vec"
)

// vecSrc is one compiled group key or aggregate argument: a plain column of
// the driving scan (stage -1) or of a hash stage's columnar build side, or a
// numeric VM expression over the driving scan.
type vecSrc struct {
	stage int
	ord   int
	t     datum.Type
	num   *numExpr
	// buf holds a VM expression's values for the current batch, addressed by
	// the identity selection.
	buf vec.Col
}

// vecAgg is one aggregate: its argument (nil for COUNT(*)) and state.
type vecAgg struct {
	arg   *vecSrc
	state *vec.Agg
}

type vecGroupByOp struct {
	groupOut
	sel *vecSelectOp
	// child wraps sel for open/close instrumentation; batches bypass it
	// (nextIDs), so next-side stats are kept here.
	child *instrumented

	keys []*vecSrc
	aggs []vecAgg
	// env is keyRow's own binding environment: the select's env belongs to
	// the paused odometer, whose residual stage filters read it on resume.
	env Env
}

// tryVecGroupBy compiles a Vec-marked group-by over a vectorized select,
// returning nil when it must run on the row path.
func (r *planRun) tryVecGroupBy(n *plan.Node) operator {
	ev := r.ev
	b := n.Box
	if !n.Vec || ev.Mem != nil || ev.NoVec || len(b.GroupBy) > vec.MaxKeyCols {
		return nil
	}
	cn := n.Children[0]
	if cn.Kind != plan.OpSelect {
		return nil
	}
	sel, _ := r.tryVecSelect(cn).(*vecSelectOp)
	if sel == nil {
		return nil
	}
	g := &vecGroupByOp{groupOut: groupOut{r: r, n: n}, sel: sel}
	for _, ge := range b.GroupBy {
		src := g.compileSrc(ge)
		if src == nil {
			return nil
		}
		g.keys = append(g.keys, src)
	}
	for _, a := range b.Aggs {
		if a.Distinct {
			return nil
		}
		va := vecAgg{}
		argT := datum.TNull
		if a.Arg != nil {
			if va.arg = g.compileSrc(a.Arg); va.arg == nil {
				return nil
			}
			argT = va.arg.t
		} else if a.Kind != datum.AggCountStar {
			return nil
		}
		if (a.Kind == datum.AggSum || a.Kind == datum.AggAvg) && vecClass(argT) != 1 {
			return nil // the row path reports the type error, if any row reaches it
		}
		va.state = vec.NewAgg(a.Kind, argT)
		g.aggs = append(g.aggs, va)
	}
	// Nothing downstream of the join reads env bindings any more; only
	// residual stage filters still need them.
	sel.alwaysBind = false
	for _, vs := range sel.stages {
		if len(vs.filters) > 0 {
			sel.alwaysBind = true
		}
	}
	g.child = &instrumented{op: sel, st: &r.stats[cn.ID]}
	return g
}

// compileSrc resolves a group-by expression — a column of the input
// quantifier — through the select's output list to the scan or stage column
// (or numeric expression) that produces it.
func (g *vecGroupByOp) compileSrc(e qgm.Expr) *vecSrc {
	o := g.sel
	cr, ok := e.(*qgm.ColRef)
	if !ok || cr.Q != g.n.Box.Quantifiers[0] || cr.Ord >= len(o.n.Box.Output) {
		return nil
	}
	se := o.n.Box.Output[cr.Ord].Expr
	if x, ok := se.(*qgm.ColRef); ok {
		switch {
		case x.Q == o.q0 && x.Ord < len(o.colTypes):
			if t := o.colTypes[x.Ord]; vecClass(t) != 0 {
				return &vecSrc{stage: -1, ord: x.Ord, t: t}
			}
		default:
			for s, vs := range o.stages {
				// Only a base-table build side is columnar.
				if vs.quant != x.Q || vs.st.Child.Kind != plan.OpScan {
					continue
				}
				cols := vs.st.Child.Box.Table.Columns
				if x.Ord < len(cols) && vecClass(cols[x.Ord].Type) != 0 {
					return &vecSrc{stage: s, ord: x.Ord, t: cols[x.Ord].Type}
				}
			}
		}
		return nil
	}
	num, ok := o.compileNum(se, o.colTypes)
	if !ok {
		return nil
	}
	src := &vecSrc{num: num, t: datum.TFloat}
	src.buf.Nulls = make([]bool, vecBatch)
	if num.isInt {
		src.t = datum.TInt
		src.buf.I64 = make([]int64, vecBatch)
	} else {
		src.buf.F64 = make([]float64, vecBatch)
	}
	src.buf.T = src.t
	return src
}

// load returns the column holding the batch's values of s and the row ids
// addressing it: drive are the batch's driving-scan row ids, ident the
// identity selection of the same length.
func (s *vecSrc) load(o *vecSelectOp, drive, ident vec.Sel) (*vec.Col, vec.Sel) {
	switch {
	case s.num != nil:
		if s.num.isInt {
			s.num.evalI(o, drive, s.buf.I64, s.buf.Nulls)
		} else {
			s.num.evalF(o, drive, s.buf.F64, s.buf.Nulls)
		}
		return &s.buf, ident
	case s.stage < 0:
		return &o.tbl.Cols[s.ord], drive
	}
	vs := o.stages[s.stage]
	return &vs.tbl.Cols[s.ord], vs.ids
}

func (g *vecGroupByOp) open() error {
	ev := g.r.ev
	b := g.n.Box
	o := g.sel
	if g.n.BoxRoot {
		ev.Counters.BoxEvals++
	}
	if err := g.child.open(); err != nil {
		g.child.close()
		return err
	}
	g.r.stats[g.n.ID].Vectorized = true
	g.env = ev.rootEnv()

	gt := vec.NewGroupTable()
	words := make([][]uint64, len(g.keys))
	for j := range words {
		words[j] = make([]uint64, vecBatch)
	}
	nulls := make([]uint8, vecBatch)
	gids := make([]int32, vecBatch)
	ident := vec.Iota(make(vec.Sel, 0, vecBatch), 0, vecBatch)
	var fresh []int32
	var keyRows []datum.Row
	groups := 0

	err := func() error {
		for {
			t := time.Now()
			drive, err := o.nextIDs()
			g.child.st.Nanos += time.Since(t).Nanoseconds()
			if err != nil {
				return err
			}
			n := len(drive)
			if n == 0 {
				return nil
			}
			g.child.st.Batches++
			g.child.st.Rows += int64(n)

			if len(g.keys) == 0 {
				// Scalar aggregation: one group, created by the first row.
				if groups == 0 {
					groups = 1
					keyRows = append(keyRows, nil)
				}
			} else {
				clear(nulls[:n])
				for j, src := range g.keys {
					c, ids := src.load(o, drive, ident[:n])
					vec.NormCol(c, ids, words[j], nulls, 1<<j)
				}
				fresh = gt.Assign(words, nulls, n, gids, fresh[:0])
				for _, k := range fresh {
					row, err := g.keyRow(int(k), drive)
					if err != nil {
						return err
					}
					keyRows = append(keyRows, row)
				}
				groups = gt.Len()
			}
			for _, a := range g.aggs {
				a.state.Grow(groups)
				if a.arg == nil {
					a.state.Add(gids[:n], nil, nil, nil)
					continue
				}
				c, ids := a.arg.load(o, drive, ident[:n])
				a.state.Add(gids[:n], c, ids, o.strs)
			}
		}
	}()
	if cerr := g.child.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// Scalar aggregation over empty input yields one row.
	if groups == 0 && len(b.GroupBy) == 0 {
		g.out = []datum.Row{emptyAggRow(b)}
		return nil
	}
	g.out = make([]datum.Row, groups)
	for gi := range g.out {
		row := make(datum.Row, 0, len(b.Output))
		row = append(row, keyRows[gi]...)
		for _, a := range g.aggs {
			row = append(row, a.state.Result(gi, o.strs))
		}
		g.out[gi] = row
	}
	return nil
}

// keyRow renders the group-key values of the batch's k-th tuple exactly as
// the row path would: the select's own output expressions, interpreted over
// the tuple's rows. It runs once per group, not per input row.
func (g *vecGroupByOp) keyRow(k int, drive vec.Sel) (datum.Row, error) {
	o := g.sel
	g.env[o.q0] = o.rows[drive[k]]
	for _, vs := range o.stages {
		g.env[vs.quant] = vs.rows[vs.ids[k]]
	}
	row := make(datum.Row, len(g.keys))
	for j, ge := range g.n.Box.GroupBy {
		v, err := EvalExpr(o.n.Box.Output[ge.(*qgm.ColRef).Ord].Expr, g.env)
		if err != nil {
			return nil, err
		}
		row[j] = v
	}
	return row, nil
}

func (g *vecGroupByOp) close() error {
	g.out = nil
	return g.child.close()
}
