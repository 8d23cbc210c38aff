package exec

import (
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/plan"
	"starmagic/internal/qgm"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
	"starmagic/internal/storage"
)

// TestHashProbeAllocs pins the transient hash-join probe to zero
// allocations per probe: the key is encoded into the evaluator's reused
// buffer and the bucket is read with the map-index string(buf) pattern,
// which Go compiles without materializing a string.
func TestHashProbeAllocs(t *testing.T) {
	ev := New(storage.NewStore())
	inner := &qgm.Quantifier{Name: "i"}
	outer := &qgm.Quantifier{Name: "o"}
	rows := make([]datum.Row, 256)
	for i := range rows {
		rows[i] = datum.Row{datum.Int(int64(i % 32)), datum.Int(int64(i))}
	}
	ht, err := ev.buildHashTable(inner, []qgm.Expr{&qgm.ColRef{Q: inner, Ord: 0}}, rows, Env{})
	if err != nil {
		t.Fatal(err)
	}
	probeKey := []qgm.Expr{&qgm.ColRef{Q: outer, Ord: 0}}
	env := Env{outer: datum.Row{datum.Int(7), datum.Int(0)}}

	var matched int
	if avg := testing.AllocsPerRun(500, func() {
		ev.keyBuf = ev.keyBuf[:0]
		for _, e := range probeKey {
			v, err := EvalExpr(e, env)
			if err != nil {
				t.Fatal(err)
			}
			ev.keyBuf = v.AppendKey(ev.keyBuf)
		}
		matched = len(ht[string(ev.keyBuf)])
	}); avg > 0 {
		t.Errorf("hash probe allocates %.1f times per run, want 0", avg)
	}
	if matched != 8 {
		t.Fatalf("probe matched %d rows, want 8", matched)
	}
}

// allocFixture builds a store with a fact table of n rows over groups group
// keys (id unique; name only there to give a filter the kernels cannot
// compile) and a one-row probe table.
func allocFixture(t *testing.T, n, groups int) (*catalog.Catalog, *storage.Store) {
	t.Helper()
	cat := catalog.New()
	fact := &catalog.Table{Name: "fact", Columns: []catalog.Column{
		{Name: "id", Type: datum.TInt}, {Name: "k", Type: datum.TInt},
		{Name: "v", Type: datum.TFloat}, {Name: "name", Type: datum.TString},
	}}
	probe := &catalog.Table{Name: "probe", Columns: []catalog.Column{
		{Name: "id", Type: datum.TInt}, {Name: "name", Type: datum.TString},
	}}
	store := storage.NewStore()
	for _, tb := range []*catalog.Table{fact, probe} {
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	fr := store.Create(fact)
	for i := 0; i < n; i++ {
		row := datum.Row{datum.Int(int64(i)), datum.Int(int64(i % groups)), datum.Float(float64(i) * 0.25), datum.String("x")}
		if err := fr.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Create(probe).Insert(datum.Row{datum.Int(int64(n / 2)), datum.String("x")}); err != nil {
		t.Fatal(err)
	}
	return cat, store
}

// planAllocs lowers query and returns the allocations of one whole
// execution (evaluator included), the row count, and the run's operator
// statistics.
func planAllocs(t *testing.T, cat *catalog.Catalog, store *storage.Store, query string) (float64, int, *plan.Plan, []plan.OpStats) {
	t.Helper()
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	g, err := semant.NewBuilder(cat).Build(q)
	if err != nil {
		t.Fatalf("build %q: %v", query, err)
	}
	p := plan.Lower(g)
	var rows []datum.Row
	var stats []plan.OpStats
	allocs := testing.AllocsPerRun(10, func() {
		rows, stats, err = New(store).EvalPlan(p)
		if err != nil {
			t.Fatalf("eval %q: %v", query, err)
		}
	})
	return allocs, len(rows), p, stats
}

// TestGroupByAllocsDoNotScaleWithInput is the allocation ceiling of both
// group-by paths: O(groups) plus a constant, whatever the input size. The
// vectorized path folds column batches into typed accumulators; the row path
// (forced by a LIKE filter no kernel compiles) reads a recycled projection
// slab by ordinal and allocates only when a row starts a new group — zero
// allocations for a row that updates an existing one.
func TestGroupByAllocsDoNotScaleWithInput(t *testing.T) {
	const groups = 150
	for _, tc := range []struct {
		name, query string
		vectorized  bool
	}{
		{"vectorized", "SELECT k, SUM(v), COUNT(*) FROM fact GROUP BY k", true},
		{"row", "SELECT k, SUM(v), COUNT(*) FROM fact WHERE name LIKE 'x%' GROUP BY k", false},
	} {
		var allocs [2]float64
		for i, n := range []int{5000, 20000} {
			cat, store := allocFixture(t, n, groups)
			a, rows, p, stats := planAllocs(t, cat, store, tc.query)
			if rows != groups {
				t.Fatalf("%s over %d rows: %d groups, want %d", tc.name, n, rows, groups)
			}
			for _, node := range p.Nodes {
				if node.Kind == plan.OpGroupBy && stats[node.ID].Vectorized != tc.vectorized {
					t.Fatalf("%s: group-by vectorized = %v, want %v", tc.name, stats[node.ID].Vectorized, tc.vectorized)
				}
			}
			allocs[i] = a
		}
		t.Logf("%s: %.0f allocations over 5k rows, %.0f over 20k", tc.name, allocs[0], allocs[1])
		// One scan batch boundary more or less may move a count by a few.
		if allocs[1] > allocs[0]+8 {
			t.Errorf("%s: allocations grow with the input: %.0f over 5k rows, %.0f over 20k", tc.name, allocs[0], allocs[1])
		}
		if limit := float64(8*groups + 150); allocs[1] > limit {
			t.Errorf("%s: %.0f allocations for %d groups, want at most %.0f", tc.name, allocs[1], groups, limit)
		}
	}
}

// TestFlatHashBuildAllocs: a hash join whose build side is a base table
// keys straight from its column arrays into one open-addressing table plus
// one chain array — a fixed number of slices (the table grows by doubling),
// not a bucket per key. 20 000 distinct keys must cost far fewer than 20 000
// allocations, from the vectorized select and from the row pipeline alike.
func TestFlatHashBuildAllocs(t *testing.T) {
	cat, store := allocFixture(t, 20000, 150)
	for _, tc := range []struct{ name, query string }{
		{"vectorized", "SELECT f.v FROM probe p, fact f WHERE p.id = f.id"},
		{"row", "SELECT f.v FROM probe p, fact f WHERE p.id = f.id AND p.name LIKE 'x%'"},
	} {
		allocs, rows, _, _ := planAllocs(t, cat, store, tc.query)
		if rows != 1 {
			t.Fatalf("%s: %d rows, want 1", tc.name, rows)
		}
		t.Logf("%s: %.0f allocations", tc.name, allocs)
		if allocs > 120 {
			t.Errorf("%s: building over 20000 distinct keys allocates %.0f times, want at most 120", tc.name, allocs)
		}
	}
}
