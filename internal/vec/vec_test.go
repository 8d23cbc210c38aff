package vec

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"starmagic/internal/datum"
)

// TestInternConcurrent hammers one table from many goroutines over an
// overlapping working set: every goroutine must observe the same id for the
// same string (run under -race to catch locking bugs), ids must be dense,
// and the distinct count must come out exact.
func TestInternConcurrent(t *testing.T) {
	tab := NewIntern()
	const workers = 8
	const distinct = 200
	ids := make([]map[string]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ids[w] = make(map[string]uint32, distinct)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				s := fmt.Sprintf("str-%03d", rng.Intn(distinct))
				id := tab.Intern(s)
				if prev, ok := ids[w][s]; ok && prev != id {
					t.Errorf("worker %d: %q interned as %d then %d", w, s, prev, id)
					return
				}
				ids[w][s] = id
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for s, id := range ids[w] {
			if other, ok := ids[0][s]; ok && other != id {
				t.Fatalf("%q: worker 0 saw id %d, worker %d saw %d", s, other, w, id)
			}
		}
	}
	st := tab.Stats()
	if st.Strings != distinct {
		t.Fatalf("Strings = %d, want %d", st.Strings, distinct)
	}
	for s, id := range ids[0] {
		if got := tab.Str(id); got != s {
			t.Fatalf("Str(%d) = %q, want %q", id, got, s)
		}
	}
}

// TestInternLookupAndStability checks that ids are dense in insertion order,
// that Lookup never inserts, and that hit/miss counters move the right way.
func TestInternLookupAndStability(t *testing.T) {
	tab := NewIntern()
	words := []string{"carol", "", "alice", "bob"}
	for i, s := range words {
		if id := tab.Intern(s); id != uint32(i) {
			t.Fatalf("Intern(%q) = %d, want dense id %d", s, id, i)
		}
	}
	for i, s := range words {
		if id := tab.Intern(s); id != uint32(i) {
			t.Fatalf("re-Intern(%q) = %d, want stable id %d", s, id, i)
		}
	}
	if _, ok := tab.Lookup("absent"); ok {
		t.Fatal("Lookup found a string that was never interned")
	}
	st := tab.Stats()
	if st.Strings != int64(len(words)) {
		t.Fatalf("Lookup miss grew the table: %d strings, want %d", st.Strings, len(words))
	}
	if id, ok := tab.Lookup("alice"); !ok || id != 2 {
		t.Fatalf("Lookup(alice) = %d,%v, want 2,true", id, ok)
	}
	if st.Misses < int64(len(words))+1 || st.Hits < int64(len(words)) {
		t.Fatalf("counters off: %+v", st)
	}
}

// TestColNullVsEmptyString: NULL travels in the null mask, never through the
// intern table, so a NULL string cell and an interned empty string stay
// distinct — in the mask and in the table's contents.
func TestColNullVsEmptyString(t *testing.T) {
	tab := NewIntern()
	c := NewCol(datum.TString)
	c.Append(datum.NullOf(datum.TString), tab)
	c.Append(datum.String(""), tab)
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if !c.Nulls[0] || c.Nulls[1] {
		t.Fatalf("null mask %v, want [true false]", c.Nulls)
	}
	if st := tab.Stats(); st.Strings != 1 {
		t.Fatalf("NULL must not intern: table holds %d strings, want 1 (empty string)", st.Strings)
	}
}

// randDatum draws from a small pool so comparisons hit every sign and keys
// collide: ints and floats share numeric values (3 vs 3.0 must key alike),
// plus -0.0, NULLs, and repeated strings.
func randDatum(rng *rand.Rand, t datum.Type) datum.D {
	if rng.Intn(6) == 0 {
		return datum.NullOf(t)
	}
	switch t {
	case datum.TInt:
		return datum.Int(int64(rng.Intn(7) - 3))
	case datum.TFloat:
		vals := []float64{-3, -0.5, 0, -0.0, 0.5, 3, 2.25}
		return datum.Float(vals[rng.Intn(len(vals))])
	case datum.TString:
		vals := []string{"", "alice", "bob", "carol", "bo"}
		return datum.String(vals[rng.Intn(len(vals))])
	case datum.TBool:
		return datum.Bool(rng.Intn(2) == 0)
	}
	return datum.NullOf(t)
}

var cmpOps = []datum.CmpOp{datum.EQ, datum.NE, datum.LT, datum.LE, datum.GT, datum.GE}

// TestKernelsMatchCompareTV is the kernel oracle: every comparison kernel
// must produce exactly datum.CompareTV's verdict for every row of random
// typed columns under every operator, NULLs included.
func TestKernelsMatchCompareTV(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 256
	tab := NewIntern()
	cols := map[datum.Type]*Col{}
	rows := map[datum.Type][]datum.D{}
	for _, ty := range []datum.Type{datum.TInt, datum.TFloat, datum.TString, datum.TBool} {
		c := NewCol(ty)
		for i := 0; i < n; i++ {
			d := randDatum(rng, ty)
			c.Append(d, tab)
			rows[ty] = append(rows[ty], d)
		}
		cols[ty] = &c
	}
	// Second set of columns for column-column kernels.
	bcols := map[datum.Type]*Col{}
	brows := map[datum.Type][]datum.D{}
	for _, ty := range []datum.Type{datum.TInt, datum.TFloat, datum.TString, datum.TBool} {
		c := NewCol(ty)
		for i := 0; i < n; i++ {
			d := randDatum(rng, ty)
			c.Append(d, tab)
			brows[ty] = append(brows[ty], d)
		}
		bcols[ty] = &c
	}
	sel := Iota(nil, 0, n)
	tvs := make([]datum.TV, n)
	strs := tab.Strs()

	check := func(name string, op datum.CmpOp, lhs []datum.D, rhsAt func(i int) datum.D) {
		t.Helper()
		for k, i := range sel {
			want := datum.CompareTV(op, lhs[i], rhsAt(int(i)))
			if tvs[k] != want {
				t.Fatalf("%s op=%v row %d: kernel %v, CompareTV %v (lhs=%v rhs=%v)",
					name, op, i, tvs[k], want, lhs[i], rhsAt(int(i)))
			}
		}
	}

	for _, op := range cmpOps {
		ic, fc := cols[datum.TInt], cols[datum.TFloat]
		CmpI64Const(ic.I64, ic.Nulls, op, 1, sel, tvs)
		check("CmpI64Const", op, rows[datum.TInt], func(int) datum.D { return datum.Int(1) })

		CmpI64ConstF(ic.I64, ic.Nulls, op, 0.5, sel, tvs)
		check("CmpI64ConstF", op, rows[datum.TInt], func(int) datum.D { return datum.Float(0.5) })

		CmpF64Const(fc.F64, fc.Nulls, op, 0, sel, tvs)
		check("CmpF64Const", op, rows[datum.TFloat], func(int) datum.D { return datum.Float(0) })

		// int column vs int column, int vs float, float vs float
		bi, bf := bcols[datum.TInt], bcols[datum.TFloat]
		CmpNumNum(ic.I64, nil, ic.Nulls, op, bi.I64, nil, bi.Nulls, sel, tvs)
		check("CmpNumNum(ii)", op, rows[datum.TInt], func(i int) datum.D { return brows[datum.TInt][i] })
		CmpNumNum(ic.I64, nil, ic.Nulls, op, nil, bf.F64, bf.Nulls, sel, tvs)
		check("CmpNumNum(if)", op, rows[datum.TInt], func(i int) datum.D { return brows[datum.TFloat][i] })
		CmpNumNum(nil, fc.F64, fc.Nulls, op, nil, bf.F64, bf.Nulls, sel, tvs)
		check("CmpNumNum(ff)", op, rows[datum.TFloat], func(i int) datum.D { return brows[datum.TFloat][i] })

		sc, bs := cols[datum.TString], bcols[datum.TString]
		CmpStrConstOrd(sc.IDs, sc.Nulls, strs, op, "bob", 0, false, sel, tvs)
		check("CmpStrConstOrd", op, rows[datum.TString], func(int) datum.D { return datum.String("bob") })
		CmpStrStrOrd(sc.IDs, sc.Nulls, bs.IDs, bs.Nulls, strs, op, sel, tvs)
		check("CmpStrStrOrd", op, rows[datum.TString], func(i int) datum.D { return brows[datum.TString][i] })

		bc, bb := cols[datum.TBool], bcols[datum.TBool]
		CmpBoolConst(bc.Bs, bc.Nulls, op, true, sel, tvs)
		check("CmpBoolConst", op, rows[datum.TBool], func(int) datum.D { return datum.Bool(true) })
		CmpBoolBool(bc.Bs, bc.Nulls, bb.Bs, bb.Nulls, op, sel, tvs)
		check("CmpBoolBool", op, rows[datum.TBool], func(i int) datum.D { return brows[datum.TBool][i] })
	}

	// Id-equality kernels: constant present, constant absent, and <>.
	sc := cols[datum.TString]
	for _, neg := range []bool{false, true} {
		op := datum.EQ
		if neg {
			op = datum.NE
		}
		rhsID, present := tab.Lookup("carol")
		CmpIDConstEQ(sc.IDs, sc.Nulls, rhsID, present, neg, sel, tvs)
		check("CmpIDConstEQ", op, rows[datum.TString], func(int) datum.D { return datum.String("carol") })

		_, present = tab.Lookup("nobody")
		CmpIDConstEQ(sc.IDs, sc.Nulls, 0, present, neg, sel, tvs)
		check("CmpIDConstEQ(absent)", op, rows[datum.TString], func(int) datum.D { return datum.String("nobody") })

		bs := bcols[datum.TString]
		CmpIDIDEQ(sc.IDs, sc.Nulls, bs.IDs, bs.Nulls, neg, sel, tvs)
		check("CmpIDIDEQ", op, rows[datum.TString], func(i int) datum.D { return brows[datum.TString][i] })
	}

	// IS NULL / IS NOT NULL against the datum-level definition.
	for _, negate := range []bool{false, true} {
		IsNullTV(sc.Nulls, negate, sel, tvs)
		for k, i := range sel {
			want := rows[datum.TString][i].IsNull() != negate
			if (tvs[k] == datum.True) != want || tvs[k] == datum.Unknown {
				t.Fatalf("IsNullTV(negate=%v) row %d: %v, want %v", negate, i, tvs[k], want)
			}
		}
	}
}

// TestFilterTrue pins the selection-compaction contract: only True survives
// (False and Unknown drop — SQL WHERE semantics), order preserved, and
// NotTV keeps Unknown as Unknown.
func TestFilterTrue(t *testing.T) {
	sel := Sel{2, 5, 7, 9}
	tvs := []datum.TV{datum.True, datum.Unknown, datum.False, datum.True}
	out := FilterTrue(sel, tvs, nil)
	if fmt.Sprint(out) != "[2 9]" {
		t.Fatalf("FilterTrue = %v, want [2 9]", out)
	}
	NotTV(tvs)
	want := []datum.TV{datum.False, datum.Unknown, datum.True, datum.False}
	for i := range tvs {
		if tvs[i] != want[i] {
			t.Fatalf("NotTV[%d] = %v, want %v", i, tvs[i], want[i])
		}
	}
}

// TestKernelAllocs pins the hot loops at zero allocations per batch: the
// whole point of the columnar path is that filtering a batch touches no
// heap. AllocsPerRun would mask a regression to per-row boxing.
func TestKernelAllocs(t *testing.T) {
	const n = 512
	vals := make([]int64, n)
	nulls := make([]bool, n)
	ids := make([]uint32, n)
	for i := range vals {
		vals[i] = int64(i % 97)
		ids[i] = uint32(i % 13)
	}
	sel := Iota(make(Sel, 0, n), 0, n)
	tvs := make([]datum.TV, n)
	out := make(Sel, 0, n)

	if a := testing.AllocsPerRun(50, func() {
		CmpI64Const(vals, nulls, datum.LT, 50, sel, tvs)
		out = FilterTrue(sel[:0], tvs, out[:0])
		_ = out
	}); a != 0 {
		t.Errorf("CmpI64Const+FilterTrue allocates %v per batch, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() {
		CmpIDConstEQ(ids, nulls, 7, true, false, sel, tvs)
	}); a != 0 {
		t.Errorf("CmpIDConstEQ allocates %v per batch, want 0", a)
	}
}
