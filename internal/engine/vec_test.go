package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"starmagic/internal/datum"
	"starmagic/internal/storage"
)

// TestVectorizedSmoke proves the vectorized select operator actually
// executes — not merely that plans are marked vectorizable. A plan whose
// compile silently fell back to the row pipeline would still return correct
// rows, so the test asserts Vectorized shows up in the operator reports.
func TestVectorizedSmoke(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`
	CREATE VIEW nameSal (empname, total) AS
	  SELECT empname, SUM(salary) FROM employee GROUPBY empname;
	`); err != nil {
		t.Fatal(err)
	}
	// Constant-equality predicates on base tables lower to index access, so
	// the vectorizable shapes are stream scans with range/logic filters and
	// hash joins whose build side is a view.
	cases := []struct {
		query string
		want  []string
	}{
		{"SELECT empname FROM employee WHERE salary > 450", []string{"alice", "bob", "carol", "dan", "eve"}},
		{"SELECT empno FROM employee WHERE empname = 'carol' OR empname = 'dan'", []string{"201", "202"}},
		{"SELECT e.empname, n.total FROM employee e, nameSal n WHERE e.empname = n.empname AND e.salary > 350",
			[]string{"alice|1000", "bob|500", "carol|800", "dan|600", "eve|700", "frank|400"}},
	}
	for _, tc := range cases {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		got := sortStrings(rowsAsStrings(res))
		if strings.Join(got, ";") != strings.Join(tc.want, ";") {
			t.Errorf("%q: rows = %v, want %v", tc.query, got, tc.want)
		}
		vectorized := false
		for _, op := range res.Plan.Operators() {
			if op.Vectorized {
				vectorized = true
				if op.Rows > 0 && op.RowsPerBatch <= 0 {
					t.Errorf("%q: vectorized op %s has rows but RowsPerBatch = %v", tc.query, op.Kind, op.RowsPerBatch)
				}
			}
		}
		if !vectorized {
			t.Errorf("%q: no vectorized operator in plan:\n%s", tc.query, res.Plan.Physical())
		}
	}

	// The toggle must force the row pipeline with identical rows.
	db.SetVectorized(false)
	defer db.SetVectorized(true)
	for _, tc := range cases {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%q (vec off): %v", tc.query, err)
		}
		got := sortStrings(rowsAsStrings(res))
		if strings.Join(got, ";") != strings.Join(tc.want, ";") {
			t.Errorf("%q (vec off): rows = %v, want %v", tc.query, got, tc.want)
		}
		for _, op := range res.Plan.Operators() {
			if op.Vectorized {
				t.Errorf("%q: operator %s vectorized despite SetVectorized(false)", tc.query, op.Kind)
			}
		}
	}
}

// TestVectorizedInternMetrics checks the engine-wide intern table surfaces
// through Metrics: loading string data interns it, and repeated values hit.
func TestVectorizedInternMetrics(t *testing.T) {
	db := newDB(t)
	m := db.Metrics()
	if m.Intern.Strings == 0 {
		t.Fatalf("intern table empty after loading string data: %+v", m.Intern)
	}
	if m.Intern.Bytes <= 0 {
		t.Errorf("intern bytes = %d, want > 0", m.Intern.Bytes)
	}
	if _, err := db.Exec(`INSERT INTO employee VALUES (401, 'alice', 1, 950)`); err != nil {
		t.Fatal(err)
	}
	m2 := db.Metrics()
	if m2.Intern.Hits <= m.Intern.Hits {
		t.Errorf("re-inserting duplicate string did not hit: before %+v after %+v", m.Intern, m2.Intern)
	}
	if m2.Intern.Strings != m.Intern.Strings {
		t.Errorf("duplicate string grew the table: before %d after %d", m.Intern.Strings, m2.Intern.Strings)
	}
}

// TestVectorizedOracle is the correctness net for the vectorized executor:
// a few hundred random queries run under all three strategies, two ways
// each — vectorized streaming (the default) and row-at-a-time streaming
// (SetVectorized(false)) — which must return the exact same rows in the
// exact same order (the vec operator mirrors the row pipeline's iteration
// order), and the same bag of rows as the reference evaluator
// (testutil.Reference).
func TestVectorizedOracle(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`
	CREATE VIEW bigEarners (empno, workdept, salary) AS
	  SELECT empno, workdept, salary FROM employee WHERE salary >= 500;
	CREATE VIEW deptCounts (workdept, cnt, total) AS
	  SELECT workdept, COUNT(*), SUM(salary) FROM employee GROUPBY workdept;
	CREATE TABLE link (src INT, dst INT, PRIMARY KEY (src, dst));
	INSERT INTO link VALUES (1, 2), (2, 3), (3, 1), (2, 101), (101, 201), (201, 202);
	CREATE VIEW reach (src, dst) AS
	  SELECT src, dst FROM link
	  UNION SELECT r.src, l.dst FROM reach r, link l WHERE r.dst = l.src;
	`); err != nil {
		t.Fatal(err)
	}

	n := 220
	if testing.Short() {
		n = 60
	}
	ctx := context.Background()
	strategies := []Strategy{Original, Correlated, EMST}
	gen := &queryGen{rng: rand.New(rand.NewSource(8861))}
	sawVectorized := false
	for i := 0; i < n; i++ {
		query := gen.query()
		ref := bag(referenceRows(t, db, nil, query))
		for _, s := range strategies {
			vec, err := db.QueryContext(ctx, query, WithStrategy(s))
			if err != nil {
				t.Fatalf("query %d %q %v: %v", i, query, s, err)
			}
			for _, op := range vec.Plan.Operators() {
				if op.Vectorized {
					sawVectorized = true
				}
			}
			want := strings.Join(rowsAsStrings(vec), ";")

			db.SetVectorized(false)
			row, err := db.QueryContext(ctx, query, WithStrategy(s))
			db.SetVectorized(true)
			if err != nil {
				t.Fatalf("query %d %q %v (vec off): %v", i, query, s, err)
			}
			if got := strings.Join(rowsAsStrings(row), ";"); got != want {
				t.Fatalf("query %d %q %v: row pipeline disagrees with vectorized\nvec %s\nrow %s",
					i, query, s, want, got)
			}

			if got := bag(vec.Rows); got != ref {
				t.Fatalf("query %d %q %v: the reference disagrees with vectorized\nvec %s\nref %s",
					i, query, s, got, ref)
			}
		}
	}
	if !sawVectorized {
		t.Fatal("no oracle query executed a vectorized operator; the generator or the compiler regressed")
	}
}

// TestVectorizedStringPredicates locks down interned-string comparison
// semantics the random generator rarely reaches: equality against absent
// strings, ordered string comparison (which cannot use intern ids), and
// NULL propagation.
func TestVectorizedStringPredicates(t *testing.T) {
	db := newDB(t)
	cases := []struct {
		query string
		want  []string
	}{
		{"SELECT empno FROM employee WHERE empname = 'nobody'", nil},
		{"SELECT empno FROM employee WHERE empname <> 'alice'", []string{"102", "201", "202", "203", "301", "302"}},
		{"SELECT empname FROM employee WHERE empname < 'carol'", []string{"alice", "bob"}},
		{"SELECT empname FROM employee WHERE empname >= 'eve'", []string{"eve", "frank", "grace"}},
		{"SELECT empno FROM employee WHERE workdept IS NULL", []string{"302"}},
		{"SELECT empno FROM employee WHERE workdept IS NOT NULL AND salary * 2 > 1300",
			[]string{"101", "201", "203"}},
	}
	for _, tc := range cases {
		res, err := db.Query(tc.query)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		got := sortStrings(rowsAsStrings(res))
		if fmt.Sprint(got) != fmt.Sprint(tc.want) && !(len(got) == 0 && len(tc.want) == 0) {
			t.Errorf("%q: rows = %v, want %v", tc.query, got, tc.want)
		}
	}
}

// aggOracleDB loads the fixture of TestVectorizedAggOracle: a fact table
// whose every column has NULLs, float amounts that do not add exactly (so
// any reordering of a SUM shows in its bits), -0.0 next to 0.0, one group
// (k1 = 3) whose aggregate arguments are all NULL, and unindexed dimensions
// to hash-join against — two of them with duplicate and NULL join keys —
// plus aggregate views over fact for magic sets to restrict.
func aggOracleDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE fact (id INT, k1 INT, k2 VARCHAR, k3 FLOAT, flag BOOLEAN,
	                   qty INT, amt FLOAT, tag VARCHAR, PRIMARY KEY (id));
	CREATE TABLE dim (k1 INT, label VARCHAR, w FLOAT);
	CREATE TABLE nothing (a INT, b FLOAT);
	CREATE VIEW factTot (k1, total, n, top) AS
	  SELECT k1, SUM(amt), COUNT(*), MAX(tag) FROM fact GROUPBY k1;
	CREATE TABLE dimdup (k1 INT, label VARCHAR, w FLOAT);
	CREATE TABLE strdim (k2 VARCHAR, w FLOAT);
	CREATE VIEW factAmt (k1, total, lo, hi) AS
	  SELECT k1, SUM(amt), MIN(amt), MAX(qty) FROM fact GROUPBY k1;
	CREATE VIEW factK2 (k2, total, n, k3sum) AS
	  SELECT k2, SUM(amt), COUNT(*), SUM(k3) FROM fact GROUPBY k2;
	CREATE VIEW dimBoth (k1, w) AS
	  SELECT k1, w FROM dim UNION ALL SELECT k1, w FROM dimdup;
	CREATE TABLE line (id INT, k1 INT, k2 VARCHAR, amt FLOAT, qty INT, tag VARCHAR, PRIMARY KEY (id));
	CREATE INDEX line_k1 ON line (k1);
	CREATE INDEX line_k2 ON line (k2);
	CREATE VIEW lineTot (k1, total, n, top) AS
	  SELECT k1, SUM(amt), COUNT(*), MAX(tag) FROM line GROUPBY k1;
	CREATE VIEW lineK2 (k2, total, lo) AS
	  SELECT k2, SUM(amt), MIN(qty) FROM line GROUPBY k2;
	CREATE VIEW dimTot (k1, w, n) AS
	  SELECT k1, SUM(w), COUNT(*) FROM dimdup GROUPBY k1;
	CREATE VIEW strTot (k2, w) AS
	  SELECT k2, SUM(w) FROM strdim GROUPBY k2;`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	null := func(d datum.D, t datum.Type, oneIn int) datum.D {
		if rng.Intn(oneIn) == 0 {
			return datum.NullOf(t)
		}
		return d
	}
	k2s := []string{"a", "b", "c", "", "long-key"}
	k3s := []float64{0, math.Copysign(0, -1), 1.5, -2.25}
	var facts []datum.Row
	for i := 0; i < 600; i++ {
		k1 := datum.Int(int64(i % 7))
		qty := null(datum.Int(int64(rng.Intn(50)-10)), datum.TInt, 6)
		amt := null(datum.Float(float64(rng.Intn(1000))*0.1+0.01), datum.TFloat, 6)
		tag := null(datum.String(fmt.Sprintf("t%03d", rng.Intn(300))), datum.TString, 6)
		if i%7 == 3 {
			qty, amt, tag = datum.NullOf(datum.TInt), datum.NullOf(datum.TFloat), datum.NullOf(datum.TString)
		}
		facts = append(facts, datum.Row{
			datum.Int(int64(i)),
			null(k1, datum.TInt, 15),
			null(datum.String(k2s[rng.Intn(len(k2s))]), datum.TString, 8),
			null(datum.Float(k3s[rng.Intn(len(k3s))]), datum.TFloat, 8),
			null(datum.Bool(rng.Intn(2) == 0), datum.TBool, 8),
			qty, amt, tag,
		})
	}
	if err := db.InsertRows("fact", facts); err != nil {
		t.Fatal(err)
	}
	var dims []datum.Row
	for k := 0; k < 9; k++ {
		dims = append(dims, datum.Row{datum.Int(int64(k)), datum.String(fmt.Sprintf("L%d", k%4)), datum.Float(float64(k) * 0.7)})
	}
	dims = append(dims, datum.Row{datum.NullOf(datum.TInt), datum.String("none"), datum.Float(9)})
	if err := db.InsertRows("dim", dims); err != nil {
		t.Fatal(err)
	}
	var dups, strs []datum.Row
	for i := 0; i < 14; i++ {
		k1 := null(datum.Int(int64(rng.Intn(8))), datum.TInt, 7)
		dups = append(dups, datum.Row{k1, datum.String(fmt.Sprintf("D%d", i%5)), datum.Float(float64(rng.Intn(90)) * 0.1)})
	}
	for i := 0; i < 9; i++ {
		k2 := null(datum.String(append(k2s, "absent")[rng.Intn(len(k2s)+1)]), datum.TString, 7)
		strs = append(strs, datum.Row{k2, datum.Float(float64(rng.Intn(90)) * 0.1)})
	}
	if err := db.InsertRows("dimdup", dups); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("strdim", strs); err != nil {
		t.Fatal(err)
	}
	var lines []datum.Row
	for i := 0; i < 2400; i++ {
		lines = append(lines, datum.Row{
			datum.Int(int64(i)),
			null(datum.Int(int64(i%6)), datum.TInt, 12),
			null(datum.String(k2s[rng.Intn(len(k2s))]), datum.TString, 9),
			null(datum.Float(float64(rng.Intn(1000))*0.1+0.01), datum.TFloat, 7),
			null(datum.Int(int64(rng.Intn(20))), datum.TInt, 8),
			null(datum.String(fmt.Sprintf("t%03d", rng.Intn(300))), datum.TString, 6),
		})
	}
	if err := db.InsertRows("line", lines); err != nil {
		t.Fatal(err)
	}
	return db
}

// aggOracleQueries are fixed grouped shapes, n random combinations of keys,
// aggregates, filters and HAVING, and n view-over-fact joins (see
// magicOracleQueries).
func aggOracleQueries(rng *rand.Rand, n int) []string {
	qs := []string{
		// NULL keys, NULL arguments, an all-NULL group, every aggregate kind.
		"SELECT k1, SUM(qty), COUNT(*), COUNT(qty), AVG(qty), MIN(qty), MAX(qty) FROM fact GROUP BY k1",
		// INT and FLOAT SUM/AVG in one query over a string key.
		"SELECT k2, SUM(amt), AVG(amt), SUM(qty), AVG(qty) FROM fact GROUP BY k2",
		// MIN/MAX over strings and booleans, two keys.
		"SELECT k1, k2, MIN(tag), MAX(tag), MIN(flag), MAX(flag), COUNT(*) FROM fact GROUP BY k1, k2",
		// Four keys of four classes; -0.0 and 0.0 are one group.
		"SELECT k1, k2, flag, k3, COUNT(*), SUM(amt) FROM fact GROUP BY k1, k2, flag, k3",
		"SELECT k3, COUNT(*), MIN(k3), MAX(k3) FROM fact GROUP BY k3",
		"SELECT k1, SUM(amt) FROM fact GROUP BY k1 HAVING SUM(amt) > 2000 AND COUNT(*) > 2",
		// Scalar aggregates: a fully filtered input, an empty table, a plain one.
		"SELECT COUNT(*), SUM(qty), MIN(tag), AVG(amt) FROM fact WHERE id < 0",
		"SELECT COUNT(*), COUNT(a), SUM(b), MAX(a) FROM nothing",
		"SELECT COUNT(*), SUM(amt), AVG(qty), MIN(tag), MAX(k3) FROM fact",
		// Compiled arithmetic as aggregate arguments and as a key.
		"SELECT k1, SUM(qty * 2 + 1), SUM(amt * 0.5), MIN(-qty), AVG(qty - id) FROM fact GROUP BY k1",
		"SELECT qty + 1, COUNT(*), SUM(amt) FROM fact GROUP BY qty + 1",
		// Filters ahead of the aggregation.
		"SELECT k2, COUNT(*), SUM(amt) FROM fact WHERE amt > 20.5 AND (k2 <> 'b' OR qty IS NULL) GROUP BY k2",
		// Filters over the remaining predicate kernels: negation, column
		// against column for numbers, strings and booleans, a boolean against
		// a constant, and a constant disjunct.
		"SELECT k1, COUNT(*), SUM(amt) FROM fact WHERE NOT flag GROUP BY k1",
		"SELECT k2, COUNT(*), SUM(qty) FROM fact WHERE qty < k1 GROUP BY k2",
		"SELECT k1, COUNT(*) FROM fact WHERE k2 = tag GROUP BY k1",
		"SELECT k1, COUNT(*), MIN(tag) FROM fact WHERE k2 < tag GROUP BY k1",
		"SELECT k2, COUNT(*), SUM(amt) FROM fact WHERE flag = TRUE GROUP BY k2",
		"SELECT k1, COUNT(*) FROM fact WHERE flag = flag GROUP BY k1",
		"SELECT k1, COUNT(*), SUM(qty) FROM fact WHERE qty > 5 OR FALSE GROUP BY k1",
		// Group-by over a hash-joined select, keys and arguments from both sides.
		"SELECT d.label, SUM(f.amt), COUNT(*), MAX(d.w), MIN(f.tag) FROM fact f, dim d WHERE f.k1 = d.k1 AND f.qty > 2 GROUP BY d.label",
		"SELECT f.k2, d.k1, SUM(d.w), AVG(f.amt) FROM fact f, dim d WHERE f.k1 = d.k1 GROUP BY f.k2, d.k1",
		// A residual join filter over both sides: the odometer keeps binding rows.
		"SELECT d.label, SUM(f.amt), COUNT(*) FROM fact f, dim d WHERE f.k1 = d.k1 AND f.amt > d.w * 20 GROUP BY d.label",
		// An aggregate view under a magic-eligible join.
		"SELECT d.label, v.total, v.n, v.top FROM dim d, factTot v WHERE d.k1 = v.k1 AND d.w > 2",
	}
	keys := []string{"k1", "k2", "k3", "flag"}
	aggs := []string{"COUNT(*)", "COUNT(tag)", "SUM(qty)", "SUM(amt)", "AVG(qty)", "AVG(amt)",
		"MIN(qty)", "MAX(amt)", "MIN(tag)", "MAX(tag)", "MAX(flag)", "SUM(amt - qty)", "MIN(k3)"}
	wheres := []string{"", "", " WHERE qty > 5", " WHERE amt < 60.0 OR k1 = 3", " WHERE k2 >= 'b'", " WHERE flag"}
	for i := 0; i < n; i++ {
		perm := rng.Perm(len(keys))[:1+rng.Intn(len(keys))]
		var ks, sel []string
		for _, k := range perm {
			ks = append(ks, keys[k])
		}
		sel = append(sel, ks...)
		for j, na := 0, 1+rng.Intn(4); j < na; j++ {
			sel = append(sel, aggs[rng.Intn(len(aggs))])
		}
		q := fmt.Sprintf("SELECT %s FROM fact%s GROUP BY %s", strings.Join(sel, ", "),
			wheres[rng.Intn(len(wheres))], strings.Join(ks, ", "))
		if rng.Intn(3) == 0 {
			q += fmt.Sprintf(" HAVING COUNT(*) > %d", rng.Intn(40))
		}
		qs = append(qs, q)
	}
	return append(qs, magicOracleQueries(rng, max(n, 24))...)
}

// magicOracleQueries are n random joins of a small side to fact in which a
// materialized input drives a hash join into fact: an aggregate view over
// fact that EMST restricts by a magic set of the small side's keys, or a
// UNION ALL of two dimensions grouped over its join with fact. The small
// sides carry duplicate and NULL join keys, the sums are FLOAT, and some
// joins keep a residual filter over both sides.
func magicOracleQueries(rng *rand.Rand, n int) []string {
	smalls := []struct{ from, key, cols string }{
		{"dim d", "d.k1", "d.label"},
		{"dimdup d", "d.k1", "d.label, d.w"},
		{"strdim d", "d.k2", "d.k2, d.w"},
	}
	views := map[string][]string{
		"d.k1": {"factTot v|v.k1|v.total, v.n, v.top", "factAmt v|v.k1|v.total, v.lo, v.hi"},
		"d.k2": {"factK2 v|v.k2|v.total, v.n, v.k3sum"},
	}
	filters := []string{"d.w > %d.5", "d.w < %d.5", "d.w > %d.5 AND d.w < 7.5"}
	aggs := []string{"SUM(f.amt)", "COUNT(*)", "MAX(f.tag)", "SUM(f.k3)", "AVG(f.amt)", "MIN(f.qty)"}
	var qs []string
	for i := 0; i < n; i++ {
		filter := fmt.Sprintf(filters[rng.Intn(len(filters))], rng.Intn(8))
		if i%4 == 3 {
			residual := ""
			if rng.Intn(2) == 0 {
				residual = " AND f.amt > b.w * 10"
			}
			qs = append(qs, fmt.Sprintf("SELECT b.k1, %s, %s FROM dimBoth b, fact f WHERE b.k1 = f.k1 AND %s%s GROUP BY b.k1",
				aggs[rng.Intn(len(aggs))], aggs[rng.Intn(len(aggs))], strings.ReplaceAll(filter, "d.", "b."), residual))
			continue
		}
		sm := smalls[rng.Intn(len(smalls))]
		vs := views[sm.key]
		v := strings.Split(vs[rng.Intn(len(vs))], "|")
		qs = append(qs, fmt.Sprintf("SELECT %s, %s FROM %s, %s WHERE %s = %s AND %s", sm.cols, v[2], sm.from, v[0], sm.key, v[1], filter))
	}
	return append(qs, indexOracleQueries(rng, n)...)
}

// indexOracleQueries are n random joins in which a small side, a magic set
// or an aggregate view over a small side drives an index stage into line,
// whose indexes on k1 and k2 return a few hundred rows a key. The drivers carry duplicate and
// NULL keys; the index stage keeps residuals over its own columns (which
// filter each bucket), over both sides, and ones that stop the bucket
// filter (LIKE, division) ahead of one that would not; the outputs mix
// strings and FLOAT sums.
func indexOracleQueries(rng *rand.Rand, n int) []string {
	// filter restricts the driver; an aggregate view driver, like prepared
	// Table-1 B's, leaves the restriction to the index stage.
	drivers := []struct{ from, key, lkey, cols, w, filter string }{
		{"dim d", "d.k1", "l.k1", "d.label", "d.w", "d.w > %d.5"},
		{"dimdup d", "d.k1", "l.k1", "d.label, d.w", "d.w", "d.w > %d.5"},
		{"strdim d", "d.k2", "l.k2", "d.k2, d.w", "d.w", "d.w > %d.5"},
		{"dimBoth d", "d.k1", "l.k1", "d.k1, d.w", "d.w", "d.w > %d.5"},
		{"dimTot d", "d.k1", "l.k1", "d.k1, d.w, d.n", "d.w", "l.id > %d00"},
		{"strTot d", "d.k2", "l.k2", "d.k2, d.w", "d.w", "l.id < %d00"},
	}
	residuals := []string{"", " AND l.qty > %d", " AND l.qty < %d AND l.amt > 20.5",
		" AND (l.tag < 't1%d' OR l.qty IS NULL)", " AND l.amt > %d.5 * 10",
		" AND l.tag LIKE 't1%%' AND l.qty > %d", " AND l.qty / 2 < %d AND l.tag > 't1'", " AND l.amt > DW * %d"}
	aggs := []string{"SUM(l.amt)", "COUNT(*)", "MAX(l.tag)", "MIN(l.qty)", "AVG(l.amt)", "COUNT(l.k2)"}
	views := map[string][]string{
		"l.k1": {"lineTot v|v.k1|v.total, v.n, v.top"},
		"l.k2": {"lineK2 v|v.k2|v.total, v.lo"},
	}
	qs := []string{
		// A division stops the bucket filter: the kernel ahead of it filters
		// the bucket, it and the rest run per tuple.
		"SELECT d.k1, l.tag, l.amt FROM dimTot d, line l WHERE d.k1 = l.k1 AND l.id >= 0 AND l.qty / 2 < 9 AND l.amt > 5.5",
		"SELECT d.k1, SUM(l.amt), MAX(l.tag) FROM dimTot d, line l WHERE d.k1 = l.k1 AND l.qty / 2 < 9 GROUP BY d.k1",
	}
	for i := 0; i < n; i++ {
		d := drivers[rng.Intn(len(drivers))]
		res := residuals[rng.Intn(len(residuals))]
		if strings.Contains(res, "%d") {
			res = fmt.Sprintf(strings.Replace(res, "DW", d.w, 1), rng.Intn(12))
		}
		filter := fmt.Sprintf(d.filter, rng.Intn(20))
		if i%3 == 2 {
			// Magic sets restrict the views over line from a filtered small side.
			filter = fmt.Sprintf("%s > %d.5", d.w, rng.Intn(6))
		}
		switch i % 3 {
		case 0:
			qs = append(qs, fmt.Sprintf("SELECT %s, l.tag, l.amt, l.k2 FROM %s, line l WHERE %s = %s AND %s%s",
				d.cols, d.from, d.key, d.lkey, filter, res))
		case 1:
			g := strings.SplitN(d.cols, ",", 2)[0]
			qs = append(qs, fmt.Sprintf("SELECT %s, %s, %s FROM %s, line l WHERE %s = %s AND %s%s GROUP BY %s",
				g, aggs[rng.Intn(len(aggs))], aggs[rng.Intn(len(aggs))], d.from, d.key, d.lkey, filter, res, g))
		default:
			vs := views[d.lkey]
			v := strings.Split(vs[rng.Intn(len(vs))], "|")
			qs = append(qs, fmt.Sprintf("SELECT %s, %s FROM %s, %s WHERE %s = %s AND %s",
				d.cols, v[2], d.from, v[0], d.key, v[1], filter))
		}
	}
	return qs
}

// indexStageVectorized reports whether the run executed a select pipeline
// with an index stage on the columnar path.
func indexStageVectorized(res *Result) bool {
	for _, op := range res.Plan.Operators() {
		if op.Kind == "select" && op.Vectorized && strings.Contains(op.Detail, ":index") {
			return true
		}
	}
	return false
}

// drivenSelectVectorized reports whether the run executed a select pipeline
// on the columnar path driven by a materialized input — a magic set, a
// union — rather than by a base-table scan.
func drivenSelectVectorized(res *Result) bool {
	ops := res.Plan.Operators()
	for i, op := range ops {
		if op.Kind == "select" && op.Vectorized && i+1 < len(ops) && ops[i+1].Kind != "scan" {
			return true
		}
	}
	return false
}

// groupByVectorized reports whether the run executed a group-by operator on
// the columnar path.
func groupByVectorized(res *Result) bool {
	for _, op := range res.Plan.Operators() {
		if op.Kind == "group-by" && op.Vectorized {
			return true
		}
	}
	return false
}

// TestVectorizedAggOracle is TestVectorizedOracle for aggregation: every
// grouped shape returns the same rows in the same order — float sums
// bit-identical, groups in first-seen order — from the vectorized group-by
// and the row pipeline (SetVectorized(false)), and the same bag of rows as
// the reference evaluator, under all three strategies; and again inside a
// transaction whose uncommitted writes make the scans run over a
// visibility selection.
func TestVectorizedAggOracle(t *testing.T) {
	db := aggOracleDB(t)
	n := 60
	if testing.Short() {
		n = 15
	}
	queries := aggOracleQueries(rand.New(rand.NewSource(4242)), n)
	ctx := context.Background()

	type runner func(query string, opts ...QueryOption) (*Result, error)
	// view is what run reads, for the reference; nil for the committed state.
	check := func(label string, run runner, view *storage.View) {
		t.Helper()
		sawVec, sawMagic, sawIndex := false, false, false
		for i, query := range queries {
			ref := bag(referenceRows(t, db, view, query))
			for _, s := range []Strategy{Original, Correlated, EMST} {
				vec, err := run(query, WithStrategy(s))
				if err != nil {
					t.Fatalf("%s query %d %q %v: %v", label, i, query, s, err)
				}
				sawVec = sawVec || groupByVectorized(vec)
				sawMagic = sawMagic || s == EMST && vec.Plan.UsedEMST && drivenSelectVectorized(vec)
				sawIndex = sawIndex || indexStageVectorized(vec)
				want := strings.Join(rowsAsStrings(vec), ";")

				db.SetVectorized(false)
				row, err := run(query, WithStrategy(s))
				db.SetVectorized(true)
				if err != nil {
					t.Fatalf("%s query %d %q %v (vec off): %v", label, i, query, s, err)
				}
				if groupByVectorized(row) {
					t.Fatalf("%s query %d %q %v: group-by vectorized despite SetVectorized(false)", label, i, query, s)
				}
				if got := strings.Join(rowsAsStrings(row), ";"); got != want {
					t.Fatalf("%s query %d %q %v: row pipeline disagrees with vectorized\nvec %s\nrow %s",
						label, i, query, s, want, got)
				}
				if got := bag(vec.Rows); got != ref {
					t.Fatalf("%s query %d %q %v: the reference disagrees with vectorized\nvec %s\nref %s",
						label, i, query, s, got, ref)
				}
			}
		}
		if !sawVec {
			t.Fatalf("%s: no query executed a vectorized group-by", label)
		}
		if !sawMagic {
			t.Fatalf("%s: no EMST execution ran a select driven by its magic set vectorized", label)
		}
		if !sawIndex {
			t.Fatalf("%s: no execution ran an index stage vectorized", label)
		}
	}

	check("committed", func(query string, opts ...QueryOption) (*Result, error) {
		return db.QueryContext(ctx, query, opts...)
	}, nil)

	// The shapes that must, and must not, take the columnar path.
	for _, tc := range []struct {
		query string
		vec   bool
	}{
		{"SELECT k1, SUM(amt), COUNT(*) FROM fact GROUP BY k1", true},
		{"SELECT d.label, SUM(f.amt), MAX(d.w) FROM fact f, dim d WHERE f.k1 = d.k1 AND f.qty > 2 GROUP BY d.label", true},
		{"SELECT k1, SUM(qty * 2 + 1) FROM fact GROUP BY k1", true},
		{"SELECT k1, COUNT(DISTINCT qty), SUM(DISTINCT amt) FROM fact GROUP BY k1", false},
		{"SELECT k1, k2, k3, flag, qty, COUNT(*) FROM fact GROUP BY k1, k2, k3, flag, qty", false},
	} {
		res, err := db.QueryContext(ctx, tc.query, WithStrategy(Original))
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		if got := groupByVectorized(res); got != tc.vec {
			t.Errorf("%q: group-by vectorized = %v, want %v\n%s", tc.query, got, tc.vec, res.Plan.Physical())
		}
		if got, ref := bag(res.Rows), bag(referenceRows(t, db, nil, tc.query)); got != ref {
			t.Errorf("%q: the reference disagrees\nvec %s\nref %s", tc.query, got, ref)
		}
	}

	// Uncommitted inserts, deletes and updates: every scan of fact and dim
	// now carries a non-nil visibility selection, and line's index buckets
	// hold versions the transaction no longer sees.
	txn := db.Begin()
	defer txn.Rollback()
	if _, err := txn.Exec(`
		INSERT INTO fact VALUES (1000, 2, 'zz', 1.5, TRUE, 7, 0.3, 't999'), (1001, NULL, NULL, NULL, NULL, NULL, NULL, NULL);
		DELETE FROM fact WHERE id < 40;
		UPDATE fact SET amt = amt + 0.1 WHERE k1 = 5;
		DELETE FROM dim WHERE k1 = 1;
		DELETE FROM line WHERE qty = 3;
		UPDATE line SET amt = amt + 0.1 WHERE k1 = 2;
		INSERT INTO line VALUES (5000, 1, 'b', 1.5, 4, 't100'), (5001, NULL, NULL, NULL, NULL, NULL);`); err != nil {
		t.Fatal(err)
	}
	check("in-transaction", func(query string, opts ...QueryOption) (*Result, error) {
		return txn.QueryContext(ctx, query, opts...)
	}, txn.view)
}

// indexSnapDB loads the fixture of TestIndexStageSnapshots: 3 000 items in
// ten groups behind an index on grp, and an unindexed ten-row driver, so a
// join of the two runs a columnar index stage of ~300 rows a key. Deleting
// the items with val > 90 (~200) stays under the background vacuum's
// threshold.
func indexSnapDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE item (id INT, grp INT, val FLOAT, name VARCHAR, PRIMARY KEY (id));
	CREATE INDEX item_grp ON item (grp);
	CREATE TABLE g (grp INT, label VARCHAR);`); err != nil {
		t.Fatal(err)
	}
	var items, gs []datum.Row
	for i := 0; i < 3000; i++ {
		items = append(items, datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 10)),
			datum.Float(float64(i%97) + 0.25), datum.String(fmt.Sprintf("n%04d", i))})
	}
	for k := 0; k < 10; k++ {
		gs = append(gs, datum.Row{datum.Int(int64(k)), datum.String(fmt.Sprintf("G%d", k))})
	}
	if err := db.InsertRows("item", items); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("g", gs); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestIndexStageSnapshots: a columnar index stage reads the versions its
// snapshot sees, exactly as the row pipeline's index lookup does, whatever
// the buckets hold — versions deleted before the snapshot, deleted or
// inserted after it, a transaction's own uncommitted writes — and whatever
// vacuum does to the relation between the statement's capture and its
// probes, including while a writer and vacuum run concurrently.
func TestIndexStageSnapshots(t *testing.T) {
	const query = `SELECT g.label, i.id, i.val, i.name FROM g, item i WHERE g.grp = i.grp AND i.val > 10.5`
	// agree runs query vectorized and on the row path through run, and the
	// reference over view (nil: the committed state), which must all see
	// one snapshot, and requires one answer.
	agree := func(t *testing.T, db *Database, label string, run func(opts ...QueryOption) (*Result, error), view *storage.View) {
		t.Helper()
		vec, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !indexStageVectorized(vec) {
			t.Fatalf("%s: the index stage did not run vectorized\n%s", label, vec.Plan.Physical())
		}
		want := strings.Join(rowsAsStrings(vec), ";")
		db.SetVectorized(false)
		row, err := run()
		db.SetVectorized(true)
		if err != nil {
			t.Fatalf("%s (row path): %v", label, err)
		}
		if got := strings.Join(rowsAsStrings(row), ";"); got != want {
			t.Fatalf("%s: row path disagrees with vectorized\nvec %s\nrow %s", label, want, got)
		}
		if got, ref := bag(vec.Rows), bag(referenceRows(t, db, view, query)); got != ref {
			t.Fatalf("%s: the reference disagrees with vectorized\nvec %s\nref %s", label, got, ref)
		}
	}
	inTxn := func(tx *Txn) func(opts ...QueryOption) (*Result, error) {
		return func(opts ...QueryOption) (*Result, error) { return tx.Query(query, opts...) }
	}

	t.Run("deleted before the snapshot", func(t *testing.T) {
		db := indexSnapDB(t)
		if _, err := db.Exec(`DELETE FROM item WHERE val > 90.0`); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		defer tx.Rollback()
		agree(t, db, "dead versions in the buckets", inTxn(tx), tx.view)
	})
	t.Run("deleted and inserted after the snapshot", func(t *testing.T) {
		db := indexSnapDB(t)
		tx := db.Begin()
		defer tx.Rollback()
		if _, err := db.Exec(`DELETE FROM item WHERE val > 90.0;
			INSERT INTO item VALUES (5000, 3, 50.5, 'late'), (5001, 4, 60.5, 'later')`); err != nil {
			t.Fatal(err)
		}
		agree(t, db, "writes committed after the snapshot", inTxn(tx), tx.view)
	})
	t.Run("own uncommitted writes", func(t *testing.T) {
		db := indexSnapDB(t)
		tx := db.Begin()
		defer tx.Rollback()
		if _, err := tx.Exec(`DELETE FROM item WHERE val > 90.0;
			INSERT INTO item VALUES (5000, 3, 50.5, 'mine'), (5001, NULL, 60.5, 'nokey')`); err != nil {
			t.Fatal(err)
		}
		agree(t, db, "the transaction's own insert and delete", inTxn(tx), tx.view)
	})
	t.Run("vacuum between capture and probe", func(t *testing.T) {
		db := indexSnapDB(t)
		if _, err := db.Exec(`DELETE FROM item WHERE val > 90.0`); err != nil {
			t.Fatal(err)
		}
		tx := db.Begin() // captures the relation with its dead versions
		defer tx.Rollback()
		// Too few deletes for a background vacuum: this one runs after the
		// capture, and renumbers the versions and the index the capture saw.
		if got := db.Vacuum(); got == 0 {
			t.Fatal("vacuum reclaimed nothing")
		}
		agree(t, db, "a capture older than the vacuum", inTxn(tx), tx.view)
		agree(t, db, "a capture after the vacuum", func(opts ...QueryOption) (*Result, error) {
			return db.QueryContext(context.Background(), query, opts...)
		}, nil)
	})
	t.Run("concurrent writer and vacuum", func(t *testing.T) {
		db := indexSnapDB(t)
		stop := make(chan struct{})
		done := make(chan error, 1)
		go func() {
			for i := 0; ; i++ {
				select {
				case <-stop:
					done <- nil
					return
				default:
				}
				if _, err := db.Exec(fmt.Sprintf(`DELETE FROM item WHERE id = %d;
					INSERT INTO item VALUES (%d, %d, %d.5, 'w');`, i*7%3000, 10000+i, i%10, 11+i%80)); err != nil {
					done <- err
					return
				}
				db.Vacuum()
			}
		}()
		for i := 0; i < 20; i++ {
			tx := db.Begin()
			agree(t, db, fmt.Sprintf("round %d", i), inTxn(tx), tx.view)
			tx.Rollback()
		}
		close(stop)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	})
}
