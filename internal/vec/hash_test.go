package vec

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"starmagic/internal/datum"
)

// randCol builds a column of n values of type t drawn from a small domain
// (so keys repeat), with NULLs, over strings interned through tab.
func randCol(rng *rand.Rand, t datum.Type, n int, tab *Intern) (Col, []datum.D) {
	c := NewCol(t)
	ds := make([]datum.D, n)
	for i := range ds {
		var d datum.D
		switch t {
		case datum.TInt:
			d = datum.Int(int64(rng.Intn(9) - 4))
		case datum.TFloat:
			d = datum.Float([]float64{0, math.Copysign(0, -1), 0.1, 0.2, 0.3, -7.5, 1e17, math.NaN()}[rng.Intn(8)])
		case datum.TString:
			d = datum.String(fmt.Sprintf("s%d", rng.Intn(6)))
		case datum.TBool:
			d = datum.Bool(rng.Intn(2) == 0)
		}
		if rng.Intn(7) == 0 {
			d = datum.NullOf(t)
		}
		ds[i] = d
		c.Append(d, tab)
	}
	return c, ds
}

var colTypes = []datum.Type{datum.TInt, datum.TFloat, datum.TString, datum.TBool}

// TestJoinTableMatchesBucketBuild: chains hold exactly the rows a
// slice-per-key build puts in the bucket, ascending, NULL keys left out —
// over all versions and over a visibility selection.
func TestJoinTableMatchesBucketBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(3000)
		nk := 1 + rng.Intn(MaxKeyCols)
		tab := NewIntern()
		cols := make([]*Col, nk)
		for j := range cols {
			c, _ := randCol(rng, colTypes[rng.Intn(len(colTypes))], n, tab)
			cols[j] = &c
		}
		var vis Sel
		if trial%2 == 1 {
			vis = Sel{}
			for i := 0; i < n; i++ {
				if rng.Intn(3) > 0 {
					vis = append(vis, int32(i))
				}
			}
		}
		want := map[Key][]int32{}
		visit := func(i int32) {
			var k Key
			null := []uint8{0}
			for j, c := range cols {
				NormCol(c, Sel{i}, k.V[j:j+1], null, 1)
			}
			if null[0] == 0 {
				want[k] = append(want[k], i)
			}
		}
		if vis != nil {
			for _, i := range vis {
				visit(i)
			}
		} else {
			for i := 0; i < n; i++ {
				visit(int32(i))
			}
		}
		jt := BuildJoinTable(cols, n, vis)
		for k, bucket := range want {
			var got []int32
			for r := jt.Head(&k); r >= 0; r = jt.Next(r) {
				got = append(got, r)
			}
			if !reflect.DeepEqual(got, bucket) {
				t.Fatalf("trial %d key %v: chain %v, want %v", trial, k, got, bucket)
			}
		}
		absent := Key{V: [4]uint64{0xdead, 0xbeef, 1, 2}}
		if _, ok := want[absent]; !ok && jt.Head(&absent) >= 0 {
			t.Fatalf("trial %d: absent key has a chain", trial)
		}
	}
}

// TestGroupTableFirstSeenOrder: ids are dense, assigned in first-seen order,
// equal keys share one, and Assign reports exactly the creating positions.
func TestGroupTableFirstSeenOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tab := NewIntern()
	const n = 5000
	a, _ := randCol(rng, datum.TInt, n, tab)
	b, _ := randCol(rng, datum.TString, n, tab)
	c, _ := randCol(rng, datum.TFloat, n, tab)
	gt := NewGroupTable()
	seen := map[RowKey]int32{}
	words := [][]uint64{make([]uint64, 512), make([]uint64, 512), make([]uint64, 512)}
	nulls := make([]uint8, 512)
	gids := make([]int32, 512)
	for lo := 0; lo < n; lo += 512 {
		hi := lo + 512
		if hi > n {
			hi = n
		}
		ids := Iota(nil, int32(lo), int32(hi))
		clear(nulls)
		for j, col := range []*Col{&a, &b, &c} {
			NormCol(col, ids, words[j], nulls, 1<<j)
		}
		before := gt.Len()
		fresh := gt.Assign(words, nulls, len(ids), gids, nil)
		for k := range ids {
			rk := RowKey{N: 3, Nulls: nulls[k], V: [4]uint64{words[0][k], words[1][k], words[2][k]}}
			want, ok := seen[rk]
			if !ok {
				want = int32(len(seen))
				seen[rk] = want
				if len(fresh) == 0 || fresh[0] != int32(k) {
					t.Fatalf("row %d starts group %d but Assign did not report it (fresh %v)", lo+k, want, fresh)
				}
				fresh = fresh[1:]
			}
			if gids[k] != want {
				t.Fatalf("row %d: group %d, want %d", lo+k, gids[k], want)
			}
		}
		if len(fresh) != 0 || gt.Len() != len(seen) || gt.Len() < before {
			t.Fatalf("after rows [%d,%d): %d groups, want %d; unreported fresh %v", lo, hi, gt.Len(), len(seen), fresh)
		}
	}
	if len(seen) < 100 {
		t.Fatalf("only %d groups: the fixture does not exercise table growth", len(seen))
	}
}

// TestAggMatchesAggState: every aggregate kind over every argument type
// yields, group by group, the datum AggState yields from the same values in
// the same order — bit-identical floats, same NULL typing, same tie-breaks.
func TestAggMatchesAggState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []datum.AggKind{datum.AggCount, datum.AggCountStar, datum.AggSum, datum.AggAvg, datum.AggMin, datum.AggMax}
	const n, groups = 4000, 37
	for _, typ := range colTypes {
		for _, kind := range kinds {
			if (kind == datum.AggSum || kind == datum.AggAvg) && typ != datum.TInt && typ != datum.TFloat {
				continue
			}
			tab := NewIntern()
			col, ds := randCol(rng, typ, n, tab)
			gids := make([]int32, n)
			for i := range gids {
				gids[i] = int32(rng.Intn(groups - 1)) // the last group stays empty
			}
			want := make([]*datum.AggState, groups)
			for g := range want {
				want[g] = datum.NewAggState(kind)
			}
			for i, d := range ds {
				if err := want[gids[i]].Add(d); err != nil {
					t.Fatal(err)
				}
			}
			agg := NewAgg(kind, typ)
			for lo := 0; lo < n; lo += 512 {
				hi := lo + 512
				if hi > n {
					hi = n
				}
				agg.Grow(groups)
				c := &col
				if kind == datum.AggCountStar {
					c = nil
				}
				agg.Add(gids[lo:hi], c, Iota(nil, int32(lo), int32(hi)), tab.Strs())
			}
			for g := 0; g < groups; g++ {
				got, w := agg.Result(g, tab.Strs()), want[g].Result()
				same := got.T == w.T && got.Null == w.Null && got.I == w.I && got.S == w.S && got.B == w.B &&
					math.Float64bits(got.F) == math.Float64bits(w.F)
				if !same {
					t.Fatalf("%s over %s, group %d: %#v, want %#v", kind, typ, g, got, w)
				}
			}
		}
	}
}
