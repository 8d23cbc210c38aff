package vec

import "starmagic/internal/datum"

// Agg is one aggregate's state for every group of a hash aggregation: typed
// accumulator slices indexed by the dense group ids a GroupTable hands out.
// It is the columnar counterpart of datum.AggState and produces bit-identical
// results: NULL arguments are skipped, integer sums wrap in int64, float sums
// add in input order (Add walks its batch front to back), MIN/MAX keep the
// first of equal extremes, and an empty group yields NULL for everything but
// the counts.
type Agg struct {
	Kind datum.AggKind
	cnt  []int64
	sumI []int64
	sumF []float64
	// ext holds the running MIN/MAX per group, typed like the argument.
	ext Col
}

// NewAgg returns the state of one aggregate over arguments of type arg
// (ignored for COUNT(*)).
func NewAgg(kind datum.AggKind, arg datum.Type) *Agg {
	return &Agg{Kind: kind, ext: Col{T: arg}}
}

// Grow extends the state to cover group ids below groups.
func (a *Agg) Grow(groups int) {
	for len(a.cnt) < groups {
		a.cnt = append(a.cnt, 0)
		switch a.Kind {
		case datum.AggSum, datum.AggAvg:
			a.sumI = append(a.sumI, 0)
			a.sumF = append(a.sumF, 0)
		case datum.AggMin, datum.AggMax:
			switch a.ext.T {
			case datum.TInt:
				a.ext.I64 = append(a.ext.I64, 0)
			case datum.TFloat:
				a.ext.F64 = append(a.ext.F64, 0)
			case datum.TString:
				a.ext.IDs = append(a.ext.IDs, 0)
			case datum.TBool:
				a.ext.Bs = append(a.ext.Bs, false)
			}
		}
	}
}

// Add folds one batch into the state: row k of the batch belongs to group
// gids[k] and contributes c's value at ids[k] (c is nil for COUNT(*)). strs
// resolves string ids for MIN/MAX ordering.
func (a *Agg) Add(gids []int32, c *Col, ids Sel, strs []string) {
	cnt := a.cnt
	if a.Kind == datum.AggCountStar {
		for _, g := range gids {
			cnt[g]++
		}
		return
	}
	nulls := c.Nulls
	switch a.Kind {
	case datum.AggCount:
		for k, i := range ids {
			if !nulls[i] {
				cnt[gids[k]]++
			}
		}
	case datum.AggSum, datum.AggAvg:
		if c.T == datum.TInt {
			for k, i := range ids {
				if nulls[i] {
					continue
				}
				g := gids[k]
				cnt[g]++
				a.sumI[g] += c.I64[i]
				a.sumF[g] += float64(c.I64[i])
			}
			return
		}
		for k, i := range ids {
			if nulls[i] {
				continue
			}
			g := gids[k]
			cnt[g]++
			a.sumF[g] += c.F64[i]
		}
	case datum.AggMin, datum.AggMax:
		a.addExtreme(gids, c, ids, strs, a.Kind == datum.AggMax)
	}
}

// addExtreme updates MIN (or MAX) with strict comparisons, so ties keep the
// earlier value and NaN never displaces one — datum.Compare's behaviour.
func (a *Agg) addExtreme(gids []int32, c *Col, ids Sel, strs []string, max bool) {
	cnt, nulls := a.cnt, c.Nulls
	switch c.T {
	case datum.TInt:
		ext := a.ext.I64
		for k, i := range ids {
			if nulls[i] {
				continue
			}
			g, v := gids[k], c.I64[i]
			if cnt[g] == 0 || (max && v > ext[g]) || (!max && v < ext[g]) {
				ext[g] = v
			}
			cnt[g]++
		}
	case datum.TFloat:
		ext := a.ext.F64
		for k, i := range ids {
			if nulls[i] {
				continue
			}
			g, v := gids[k], c.F64[i]
			if cnt[g] == 0 || (max && v > ext[g]) || (!max && v < ext[g]) {
				ext[g] = v
			}
			cnt[g]++
		}
	case datum.TString:
		ext := a.ext.IDs
		for k, i := range ids {
			if nulls[i] {
				continue
			}
			g, v := gids[k], c.IDs[i]
			if cnt[g] == 0 {
				ext[g] = v
			} else if v != ext[g] {
				if s, e := strs[v], strs[ext[g]]; (max && s > e) || (!max && s < e) {
					ext[g] = v
				}
			}
			cnt[g]++
		}
	case datum.TBool:
		ext := a.ext.Bs
		for k, i := range ids {
			if nulls[i] {
				continue
			}
			g, v := gids[k], c.Bs[i]
			// FALSE < TRUE.
			if cnt[g] == 0 || (max && v && !ext[g]) || (!max && !v && ext[g]) {
				ext[g] = v
			}
			cnt[g]++
		}
	}
}

// Result returns group g's final value, exactly as datum.AggState.Result
// would after the same inputs.
func (a *Agg) Result(g int, strs []string) datum.D {
	n := a.cnt[g]
	switch a.Kind {
	case datum.AggCount, datum.AggCountStar:
		return datum.Int(n)
	case datum.AggSum:
		if n == 0 {
			return datum.NullOf(datum.TInt)
		}
		if a.ext.T == datum.TFloat {
			return datum.Float(a.sumF[g])
		}
		return datum.Int(a.sumI[g])
	case datum.AggAvg:
		if n == 0 {
			return datum.NullOf(datum.TFloat)
		}
		return datum.Float(a.sumF[g] / float64(n))
	case datum.AggMin, datum.AggMax:
		if n == 0 {
			return datum.Null()
		}
		switch a.ext.T {
		case datum.TInt:
			return datum.Int(a.ext.I64[g])
		case datum.TFloat:
			return datum.Float(a.ext.F64[g])
		case datum.TString:
			return datum.String(strs[a.ext.IDs[g]])
		case datum.TBool:
			return datum.Bool(a.ext.Bs[g])
		}
	}
	return datum.Null()
}
