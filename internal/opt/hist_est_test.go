package opt

import (
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// skewGraph builds a select over a table whose k column is Zipf-like: value
// 7 covers 90% of rows, the rest spread over 500 rare values. Statistics are
// computed by the real ANALYZE path so the histogram is genuine.
func skewGraph(t *testing.T) (*qgm.Box, *qgm.Quantifier) {
	t.Helper()
	tab := &catalog.Table{
		Name:    "sk",
		Columns: []catalog.Column{{Name: "k", Type: datum.TInt}, {Name: "s", Type: datum.TString}},
	}
	const n = 10000
	rows := make([]datum.Row, n)
	for i := range rows {
		k := int64(7)
		if i%10 == 0 {
			k = 100 + int64(i)%500
		}
		s := "HQ"
		if i%20 == 0 {
			s = "R" + string(rune('A'+i%26))
		}
		rows[i] = datum.Row{datum.Int(k), datum.String(s)}
	}
	catalog.AnalyzeTable(tab, rows)

	g := qgm.NewGraph()
	base := g.NewBox(qgm.KindBaseTable, "SK")
	base.Table = tab
	for _, c := range tab.Columns {
		base.Output = append(base.Output, qgm.OutputCol{Name: c.Name, Type: c.Type})
	}
	sel := g.NewBox(qgm.KindSelect, "S")
	q := g.AddQuantifier(sel, qgm.ForEach, "t", base)
	for i, c := range base.Output {
		sel.Output = append(sel.Output, qgm.OutputCol{Name: c.Name, Expr: q.Col(i), Type: c.Type})
	}
	g.Top = sel
	return sel, q
}

func TestHistogramEqSelectivity(t *testing.T) {
	sel, q := skewGraph(t)
	eq := func(col int, v datum.D) *qgm.Cmp {
		return &qgm.Cmp{Op: datum.EQ, L: q.Col(col), R: &qgm.Const{Val: v}}
	}

	e := NewEstimator()
	heavy := e.Selectivity(sel, eq(0, datum.Int(7)))
	if heavy < 0.8 || heavy > 1 {
		t.Errorf("heavy value selectivity = %v; want ~0.9", heavy)
	}
	rare := e.Selectivity(sel, eq(0, datum.Int(250)))
	if rare > 0.01 {
		t.Errorf("rare value selectivity = %v; want tiny", rare)
	}
	// Interned-string columns probe the same way, by literal value.
	hq := e.Selectivity(sel, eq(1, datum.String("HQ")))
	if hq < 0.8 {
		t.Errorf("heavy string selectivity = %v; want ~0.95", hq)
	}

	// Flat mode must fall back to 1/NDV — blind to the skew.
	flat := NewEstimatorWith(nil, true)
	fh := flat.Selectivity(sel, eq(0, datum.Int(7)))
	if fh > 0.1 {
		t.Errorf("flat heavy selectivity = %v; want ~1/NDV", fh)
	}
	if heavy < 10*fh {
		t.Errorf("histogram (%v) should dwarf flat estimate (%v) on the heavy value", heavy, fh)
	}
}

func TestHistogramRangeSelectivity(t *testing.T) {
	sel, q := skewGraph(t)
	// k < 100 excludes every rare value (rare values are 100..599) but
	// includes the heavy 7 → ~90%.
	s := NewEstimator().Selectivity(sel, &qgm.Cmp{
		Op: datum.LT, L: q.Col(0), R: &qgm.Const{Val: datum.Int(100)}})
	if s < 0.8 || s > 1 {
		t.Errorf("k < 100 selectivity = %v; want ~0.9", s)
	}
	// Flat min/max interpolation over [7, 599] would guess ~16% — the
	// histogram must beat that decisively on skewed data.
	flat := NewEstimatorWith(nil, true).Selectivity(sel, &qgm.Cmp{
		Op: datum.LT, L: q.Col(0), R: &qgm.Const{Val: datum.Int(100)}})
	if flat > 0.5 {
		t.Errorf("flat range selectivity = %v; want interpolated ~0.16", flat)
	}
}

func TestCardHintsOverrideEstimates(t *testing.T) {
	sel, _ := skewGraph(t)
	base := NewEstimator().Card(sel)
	hinted := NewEstimatorWith(map[string]float64{"S": 42}, false)
	if c := hinted.Card(sel); c != 42 {
		t.Errorf("hinted card = %v; want 42 (unhinted was %v)", c, base)
	}
	// A hint for an unrelated box name changes nothing.
	other := NewEstimatorWith(map[string]float64{"NOPE": 42}, false)
	if c := other.Card(sel); c != base {
		t.Errorf("unrelated hint changed card: %v vs %v", c, base)
	}
}

// TestBoundParamSelectivity: with a binding, a comparison of a column with
// a parameter is estimated as the comparison with the bound value — the
// histogram's skew and its ranges show through; without one, parameters
// keep the defaults. BindingSensitive names exactly the predicates whose
// estimate reads a binding.
func TestBoundParamSelectivity(t *testing.T) {
	sel, q := skewGraph(t)
	param := &qgm.Param{Ord: 0}
	cases := []struct {
		op datum.CmpOp
		v  datum.D
	}{
		{datum.EQ, datum.Int(7)}, {datum.EQ, datum.Int(250)}, {datum.LT, datum.Int(300)}, {datum.GE, datum.Int(450)},
	}
	for _, c := range cases {
		lit := NewEstimator().Selectivity(sel, &qgm.Cmp{Op: c.op, L: q.Col(0), R: &qgm.Const{Val: c.v}})
		bound := NewEstimator()
		bound.Params = datum.Row{c.v}
		withParam := &qgm.Cmp{Op: c.op, L: q.Col(0), R: param}
		if got := bound.Selectivity(sel, withParam); got != lit {
			t.Errorf("%v %v: bound estimate %v, literal %v", c.op, c.v, got, lit)
		}
		// Flipped sides read the same.
		if got := bound.Selectivity(sel, &qgm.Cmp{Op: c.op.Flip(), L: param, R: q.Col(0)}); got != lit {
			t.Errorf("%v %v flipped: bound estimate %v, literal %v", c.op, c.v, got, lit)
		}
		if !bound.BindingSensitive(withParam) {
			t.Errorf("%v: not binding-sensitive", c.op)
		}
	}
	unbound := NewEstimator()
	if got := unbound.Selectivity(sel, &qgm.Cmp{Op: datum.LT, L: q.Col(0), R: param}); got != rangeSelectivity {
		t.Errorf("unbound range estimate %v, want the default %v", got, rangeSelectivity)
	}
	if unbound.BindingSensitive(&qgm.Cmp{Op: datum.EQ, L: q.Col(0), R: &qgm.Const{Val: datum.Int(7)}}) ||
		unbound.BindingSensitive(&qgm.Cmp{Op: datum.EQ, L: &qgm.Arith{Op: datum.Add, L: q.Col(0), R: param}, R: param}) {
		t.Error("a predicate whose estimate reads no binding is binding-sensitive")
	}
	flat := NewEstimatorWith(nil, true)
	if flat.BindingSensitive(&qgm.Cmp{Op: datum.EQ, L: q.Col(0), R: param}) ||
		!flat.BindingSensitive(&qgm.Cmp{Op: datum.LT, L: q.Col(0), R: param}) {
		t.Error("without histograms only range comparisons over min/max read a binding")
	}
}
