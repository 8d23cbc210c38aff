package vec

import "starmagic/internal/datum"

// Comparison kernels evaluate "col op rhs" over a selection vector into a
// parallel three-valued-logic vector: tvs[k] is the verdict for row sel[k].
// NULL operands yield Unknown, matching datum.CompareTV exactly.
//
// Every kernel hoists the operator out of the loop by precomputing the truth
// value for each comparison sign (less / equal / greater), so the inner loop
// is a typed compare and two predictable branches — no interface dispatch,
// no datum.D copies, no byte-key encoding.

// SignTVs maps a comparison operator to the truth value produced by each
// comparison outcome.
func SignTVs(op datum.CmpOp) (lt, eq, gt datum.TV) {
	switch op {
	case datum.EQ:
		return datum.False, datum.True, datum.False
	case datum.NE:
		return datum.True, datum.False, datum.True
	case datum.LT:
		return datum.True, datum.False, datum.False
	case datum.LE:
		return datum.True, datum.True, datum.False
	case datum.GT:
		return datum.False, datum.False, datum.True
	case datum.GE:
		return datum.False, datum.True, datum.True
	}
	return datum.Unknown, datum.Unknown, datum.Unknown
}

// CmpI64Const compares an INT column against an INT constant.
func CmpI64Const(vals []int64, nulls []bool, op datum.CmpOp, rhs int64, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	for k, i := range sel {
		if nulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		switch v := vals[i]; {
		case v < rhs:
			tvs[k] = ltv
		case v > rhs:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpF64Const compares a FLOAT column against a numeric constant.
func CmpF64Const(vals []float64, nulls []bool, op datum.CmpOp, rhs float64, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	for k, i := range sel {
		if nulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		switch v := vals[i]; {
		case v < rhs:
			tvs[k] = ltv
		case v > rhs:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpI64ConstF compares an INT column against a FLOAT constant (SQL compares
// mixed numerics as float64).
func CmpI64ConstF(vals []int64, nulls []bool, op datum.CmpOp, rhs float64, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	for k, i := range sel {
		if nulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		switch v := float64(vals[i]); {
		case v < rhs:
			tvs[k] = ltv
		case v > rhs:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpNumNum compares two numeric columns of the same table element-wise,
// promoting to float64 when either side is FLOAT. a and b must each have
// exactly one of the i64/f64 slices populated.
func CmpNumNum(ai []int64, af []float64, anulls []bool, op datum.CmpOp,
	bi []int64, bf []float64, bnulls []bool, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	intInt := ai != nil && bi != nil
	for k, i := range sel {
		if anulls[i] || bnulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		var c int
		if intInt {
			switch {
			case ai[i] < bi[i]:
				c = -1
			case ai[i] > bi[i]:
				c = 1
			}
		} else {
			var x, y float64
			if ai != nil {
				x = float64(ai[i])
			} else {
				x = af[i]
			}
			if bi != nil {
				y = float64(bi[i])
			} else {
				y = bf[i]
			}
			switch {
			case x < y:
				c = -1
			case x > y:
				c = 1
			}
		}
		switch {
		case c < 0:
			tvs[k] = ltv
		case c > 0:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpIDConstEQ compares a string column against a constant with = or <>
// purely on intern ids. present is false when the constant is not interned
// (Lookup missed): no stored string equals it, so = is False and <> is True
// for every non-NULL row.
func CmpIDConstEQ(ids []uint32, nulls []bool, rhs uint32, present, neg bool, sel Sel, tvs []datum.TV) {
	tEq, tNe := datum.True, datum.False
	if neg {
		tEq, tNe = datum.False, datum.True
	}
	if !present {
		for k, i := range sel {
			if nulls[i] {
				tvs[k] = datum.Unknown
			} else {
				tvs[k] = tNe
			}
		}
		return
	}
	for k, i := range sel {
		switch {
		case nulls[i]:
			tvs[k] = datum.Unknown
		case ids[i] == rhs:
			tvs[k] = tEq
		default:
			tvs[k] = tNe
		}
	}
}

// CmpIDIDEQ compares two string columns of the same table with = or <> on
// intern ids.
func CmpIDIDEQ(a []uint32, anulls []bool, b []uint32, bnulls []bool, neg bool, sel Sel, tvs []datum.TV) {
	tEq, tNe := datum.True, datum.False
	if neg {
		tEq, tNe = datum.False, datum.True
	}
	for k, i := range sel {
		switch {
		case anulls[i] || bnulls[i]:
			tvs[k] = datum.Unknown
		case a[i] == b[i]:
			tvs[k] = tEq
		default:
			tvs[k] = tNe
		}
	}
}

// CmpStrConstOrd compares a string column against a constant with an
// ordering operator, resolving ids through the intern snapshot. Equal ids
// short-circuit without touching string bytes.
func CmpStrConstOrd(ids []uint32, nulls []bool, strs []string, op datum.CmpOp, rhs string, rhsID uint32, present bool, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	for k, i := range sel {
		if nulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		if present && ids[i] == rhsID {
			tvs[k] = eqv
			continue
		}
		switch s := strs[ids[i]]; {
		case s < rhs:
			tvs[k] = ltv
		case s > rhs:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpStrStrOrd compares two string columns with an ordering operator.
func CmpStrStrOrd(a []uint32, anulls []bool, b []uint32, bnulls []bool, strs []string, op datum.CmpOp, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	for k, i := range sel {
		if anulls[i] || bnulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		if a[i] == b[i] {
			tvs[k] = eqv
			continue
		}
		switch x, y := strs[a[i]], strs[b[i]]; {
		case x < y:
			tvs[k] = ltv
		case x > y:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpBoolConst compares a BOOLEAN column against a constant (FALSE < TRUE).
func CmpBoolConst(bs []bool, nulls []bool, op datum.CmpOp, rhs bool, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	rv := NormBool(rhs)
	for k, i := range sel {
		if nulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		switch v := NormBool(bs[i]); {
		case v < rv:
			tvs[k] = ltv
		case v > rv:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// CmpBoolBool compares two BOOLEAN columns.
func CmpBoolBool(a []bool, anulls []bool, b []bool, bnulls []bool, op datum.CmpOp, sel Sel, tvs []datum.TV) {
	ltv, eqv, gtv := SignTVs(op)
	for k, i := range sel {
		if anulls[i] || bnulls[i] {
			tvs[k] = datum.Unknown
			continue
		}
		switch x, y := NormBool(a[i]), NormBool(b[i]); {
		case x < y:
			tvs[k] = ltv
		case x > y:
			tvs[k] = gtv
		default:
			tvs[k] = eqv
		}
	}
}

// IsNullTV evaluates IS NULL (or IS NOT NULL with negate) over a selection.
func IsNullTV(nulls []bool, negate bool, sel Sel, tvs []datum.TV) {
	tNull, tVal := datum.True, datum.False
	if negate {
		tNull, tVal = datum.False, datum.True
	}
	for k, i := range sel {
		if nulls[i] {
			tvs[k] = tNull
		} else {
			tvs[k] = tVal
		}
	}
}

// NotTV negates a truth-value vector in place (Unknown stays Unknown).
func NotTV(tvs []datum.TV) {
	for k, v := range tvs {
		tvs[k] = v.Not()
	}
}

// FilterTrue compacts sel to the rows whose verdict is True, appending to
// out (pass out[:0] of a reused buffer for an allocation-free filter).
func FilterTrue(sel Sel, tvs []datum.TV, out Sel) Sel {
	for k, i := range sel {
		if tvs[k] == datum.True {
			out = append(out, i)
		}
	}
	return out
}

// Iota fills out with the identity selection [lo, hi).
func Iota(out Sel, lo, hi int32) Sel {
	base := len(out)
	n := int(hi - lo)
	if n <= 0 {
		return out
	}
	if cap(out)-base < n {
		out = append(out, make(Sel, n)...)
	}
	out = out[:base+n]
	for k := range out[base:] {
		out[base+k] = lo + int32(k)
	}
	return out
}
