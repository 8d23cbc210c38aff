package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"starmagic/internal/datum"
	"starmagic/internal/obs"
)

// cacheTestDB builds a small Table-1-style database: a dimension table, a
// fact table, and a grouping view the magic transformation seeds.
func cacheTestDB(t testing.TB) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE department (deptno INT, deptname VARCHAR(30), region VARCHAR(10),
	  PRIMARY KEY (deptno));
	CREATE TABLE sales (saleid INT, deptno INT, amount FLOAT, PRIMARY KEY (saleid));
	CREATE INDEX sales_dept ON sales (deptno);
	CREATE VIEW deptSales (deptno, total, cnt) AS
	  SELECT deptno, SUM(amount), COUNT(*) FROM sales GROUPBY deptno;
	`); err != nil {
		t.Fatal(err)
	}
	depts := make([]datum.Row, 0, 30)
	for d := 1; d <= 30; d++ {
		depts = append(depts, datum.Row{
			datum.Int(int64(d)),
			datum.String(fmt.Sprintf("Dept-%02d", d)),
			datum.String(fmt.Sprintf("R%d", d%5)),
		})
	}
	if err := db.InsertRows("department", depts); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	sales := make([]datum.Row, 0, 600)
	for s := 1; s <= 600; s++ {
		sales = append(sales, datum.Row{
			datum.Int(int64(s)),
			datum.Int(int64(rng.Intn(30) + 1)),
			datum.Float(float64(rng.Intn(10000)) / 10),
		})
	}
	if err := db.InsertRows("sales", sales); err != nil {
		t.Fatal(err)
	}
	return db
}

// paramViewQuery joins the dimension table to the grouping view with two
// placeholders: one on the magic-relevant dimension predicate, one on the
// aggregated view output.
const paramViewQuery = `SELECT d.deptname, v.total FROM department d, deptSales v
	WHERE d.deptno = v.deptno AND d.region = ? AND v.total > ?`

func formatRows(rows []datum.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, c := range r {
			parts[j] = c.Format()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func rowsEqual(a, b []datum.Row) bool {
	fa, fb := formatRows(a), formatRows(b)
	if len(fa) != len(fb) {
		return false
	}
	for i := range fa {
		if fa[i] != fb[i] {
			return false
		}
	}
	return true
}

// TestCachedPlanMatchesColdPrepare is the oracle check: for randomized
// bindings under all three strategies, executing the one cached plan must
// return row-for-row what a cold prepare of the same query returns, and —
// order-insensitively — what the literal-substituted query returns.
func TestCachedPlanMatchesColdPrepare(t *testing.T) {
	cached := cacheTestDB(t)
	cold := cacheTestDB(t)
	cold.SetPlanCache(false)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))

	for _, strategy := range []Strategy{EMST, Original, Correlated} {
		p, err := cached.PrepareContext(ctx, paramViewQuery, WithStrategy(strategy))
		if err != nil {
			t.Fatalf("%v: prepare: %v", strategy, err)
		}
		for trial := 0; trial < 8; trial++ {
			region := fmt.Sprintf("R%d", rng.Intn(5))
			threshold := float64(rng.Intn(20000)) / 2
			got, err := p.ExecuteContext(ctx, region, threshold)
			if err != nil {
				t.Fatalf("%v: cached execute: %v", strategy, err)
			}
			coldPrep, err := cold.PrepareContext(ctx, paramViewQuery,
				WithStrategy(strategy), WithArgs(region, threshold))
			if err != nil {
				t.Fatalf("%v: cold prepare: %v", strategy, err)
			}
			if coldPrep.Explain().CacheStatus != "bypass" {
				t.Fatalf("cold prepare cache status = %q, want bypass", coldPrep.Explain().CacheStatus)
			}
			want, err := coldPrep.ExecuteContext(ctx)
			if err != nil {
				t.Fatalf("%v: cold execute: %v", strategy, err)
			}
			if !rowsEqual(got.Rows, want.Rows) {
				t.Fatalf("%v %s/%v: cached rows != cold rows\ncached %v\ncold   %v",
					strategy, region, threshold, formatRows(got.Rows), formatRows(want.Rows))
			}
			literal := fmt.Sprintf(`SELECT d.deptname, v.total FROM department d, deptSales v
				WHERE d.deptno = v.deptno AND d.region = '%s' AND v.total > %v`, region, threshold)
			lit, err := cold.QueryContext(ctx, literal, WithStrategy(strategy))
			if err != nil {
				t.Fatalf("%v: literal: %v", strategy, err)
			}
			a, b := formatRows(got.Rows), formatRows(lit.Rows)
			sort.Strings(a)
			sort.Strings(b)
			if len(a) != len(b) || strings.Join(a, "\n") != strings.Join(b, "\n") {
				t.Fatalf("%v %s/%v: parameterized rows != literal rows\nparam   %v\nliteral %v",
					strategy, region, threshold, a, b)
			}
		}
	}
}

// TestPlanCacheHitMissLifecycle checks the epoch machinery: a second prepare
// hits; DDL and explicit ANALYZE each advance the epoch and force a
// re-prepare on next touch, while DML keeps cached plans valid (plans read
// through MVCC snapshots, so data changes never invalidate them).
func TestPlanCacheHitMissLifecycle(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	status := func() string {
		p, err := db.PrepareContext(ctx, paramViewQuery)
		if err != nil {
			t.Fatal(err)
		}
		return p.Explain().CacheStatus
	}
	if got := status(); got != "miss" {
		t.Fatalf("first prepare = %q, want miss", got)
	}
	if got := status(); got != "hit" {
		t.Fatalf("second prepare = %q, want hit", got)
	}
	if _, err := db.Exec(`INSERT INTO sales VALUES (9001, 3, 12.5)`); err != nil {
		t.Fatal(err)
	}
	if got := status(); got != "hit" {
		t.Fatalf("prepare after INSERT = %q, want hit (DML must not invalidate)", got)
	}
	if _, err := db.Exec(`CREATE INDEX dept_region ON department (region)`); err != nil {
		t.Fatal(err)
	}
	if got := status(); got != "miss" {
		t.Fatalf("prepare after DDL = %q, want miss", got)
	}
	db.Analyze()
	if got := status(); got != "miss" {
		t.Fatalf("prepare after ANALYZE = %q, want miss", got)
	}
	// Whitespace/case variants normalize to the same key.
	variant := strings.ToLower(strings.Join(strings.Fields(paramViewQuery), "  "))
	p, err := db.PrepareContext(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Explain().CacheStatus; got != "hit" {
		t.Fatalf("normalized variant = %q, want hit", got)
	}
	// Different strategies cache separately.
	p2, err := db.PrepareContext(ctx, paramViewQuery, WithStrategy(Original))
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Explain().CacheStatus; got != "miss" {
		t.Fatalf("other strategy = %q, want miss", got)
	}
}

// TestPlanCacheDisabledAndTracerBypass checks the two bypass paths.
func TestPlanCacheDisabledAndTracerBypass(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	db.SetPlanCache(false)
	p, err := db.PrepareContext(ctx, paramViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Explain().CacheStatus; got != "bypass" {
		t.Fatalf("disabled cache = %q, want bypass", got)
	}
	if st := db.PlanCacheStats(); st.Enabled || st.Entries != 0 {
		t.Fatalf("disabled stats = %+v", st)
	}
	db.SetPlanCache(true)
	if _, err := db.PrepareContext(ctx, paramViewQuery); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewRecorder()
	p, err = db.PrepareContext(ctx, paramViewQuery, WithTracer(tr))
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Explain().CacheStatus; got != "bypass" {
		t.Fatalf("traced prepare = %q, want bypass (spans need the live pipeline)", got)
	}
}

// TestPlanCacheSingleFlight launches concurrent prepares of one novel query
// and checks that exactly one cold optimization ran: everyone else either
// waited on the leader (shared) or hit the completed entry.
func TestPlanCacheSingleFlight(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			_, errs[i] = db.PrepareContext(ctx, paramViewQuery)
		}(i)
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	m := db.Metrics()
	if m.CacheMisses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (single-flight)", m.CacheMisses)
	}
	if m.CacheHits+m.CacheShared != workers-1 {
		t.Fatalf("hits %d + shared %d = %d, want %d", m.CacheHits, m.CacheShared,
			m.CacheHits+m.CacheShared, workers-1)
	}
}

// TestPlanCacheConcurrentWithMutations mixes cached parameterized queries
// with concurrent inserts; every query must still see a consistent result
// for its binding (run under -race via make check).
func TestPlanCacheConcurrentWithMutations(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	const lookups = 40
	var wg sync.WaitGroup
	errCh := make(chan error, lookups+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Exec(fmt.Sprintf(`INSERT INTO sales VALUES (%d, 1, 5.0)`, 10_000+i)); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for i := 0; i < lookups; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			deptno := i%30 + 1
			res, err := db.QueryContext(ctx, `SELECT d.deptname FROM department d WHERE d.deptno = ?`,
				WithArgs(deptno))
			if err != nil {
				errCh <- err
				return
			}
			want := fmt.Sprintf("Dept-%02d", deptno)
			if len(res.Rows) != 1 || res.Rows[0][0].Format() != want {
				errCh <- fmt.Errorf("deptno %d: got %v, want [[%s]]", deptno, formatRows(res.Rows), want)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestPlanCacheLRUEviction overfills one cache generously past its total
// capacity and checks entries stay bounded and evictions are counted.
func TestPlanCacheLRUEviction(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	total := cacheShardCount * db.plans.perShard
	for i := 0; i < total+64; i++ {
		q := fmt.Sprintf(`SELECT d.deptname FROM department d WHERE d.deptno = %d`, i)
		if _, err := db.PrepareContext(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.plans.len(); n > total {
		t.Fatalf("cache holds %d entries, cap %d", n, total)
	}
	if m := db.Metrics(); m.CacheEvictions == 0 {
		t.Fatal("expected evictions after overfilling the cache")
	}
}

// TestParamArgValidation covers binding-count and type errors, and the
// DDL/DML placeholder rejection.
func TestParamArgValidation(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	if _, err := db.QueryContext(ctx, `SELECT d.deptno FROM department d WHERE d.deptno = ?`); err == nil ||
		!strings.Contains(err.Error(), "expects 1 parameter") {
		t.Fatalf("missing binding: err = %v", err)
	}
	if _, err := db.QueryContext(ctx, `SELECT d.deptno FROM department d`, WithArgs(1)); err == nil ||
		!strings.Contains(err.Error(), "expects 0 parameter") {
		t.Fatalf("extra binding: err = %v", err)
	}
	if _, err := db.QueryContext(ctx, `SELECT d.deptno FROM department d WHERE d.deptno = ?`,
		WithArgs(struct{}{})); err == nil || !strings.Contains(err.Error(), "unsupported type") {
		t.Fatalf("bad type: err = %v", err)
	}
	if _, err := db.Exec(`INSERT INTO sales VALUES (?, 1, 1.0)`); err == nil ||
		!strings.Contains(err.Error(), "placeholder") {
		t.Fatalf("DML placeholder: err = %v", err)
	}
	if _, err := db.Exec(`CREATE VIEW bad (a) AS SELECT deptno FROM sales WHERE amount > ?`); err == nil ||
		!strings.Contains(err.Error(), "placeholder") {
		t.Fatalf("view placeholder: err = %v", err)
	}
	// Per-execute args override prepare-time args.
	p, err := db.PrepareContext(ctx, `SELECT d.deptname FROM department d WHERE d.deptno = ?`, WithArgs(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ExecuteContext(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Format() != "Dept-02" {
		t.Fatalf("override binding: got %v", formatRows(res.Rows))
	}
	// NULL binding: comparison yields UNKNOWN, so no rows.
	res, err = p.ExecuteContext(ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("NULL binding returned %v", formatRows(res.Rows))
	}
}

// TestParamExplainReporting checks the explain surface: placeholder count,
// default-selectivity and per-binding re-plan note, and the cache line.
func TestParamExplainReporting(t *testing.T) {
	db := cacheTestDB(t)
	info, err := db.ExplainContext(context.Background(), paramViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if info.Params != 2 {
		t.Fatalf("Params = %d, want 2", info.Params)
	}
	text := info.String()
	if !strings.Contains(text, "parameters: 2") || !strings.Contains(text, "default selectivities") ||
		!strings.Contains(text, "re-plan once per binding selectivity class") {
		t.Fatalf("explain missing parameter note:\n%s", text)
	}
	if !strings.Contains(text, "cache: miss") {
		t.Fatalf("explain missing cache line:\n%s", text)
	}
	info2, err := db.ExplainContext(context.Background(), paramViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if info2.CacheStatus != "hit" {
		t.Fatalf("second explain cache = %q, want hit", info2.CacheStatus)
	}
}

// TestCacheKeyQuoteCollision is the regression test for the normalization
// injectivity hole: a WHERE clause whose string literal contains escaped
// quotes must not share a cache key with the two-literal spelling — with the
// cache on, a collision would serve one query the other's plan.
func TestCacheKeyQuoteCollision(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	// One literal containing "Dept-02' AND d.region = 'R2" — matches nothing.
	oneLit := `SELECT d.deptno FROM department d
		WHERE d.deptname = 'Dept-02'' AND d.region = ''R2'`
	// Two literals — matches exactly department 2.
	twoLit := `SELECT d.deptno FROM department d
		WHERE d.deptname = 'Dept-02' AND d.region = 'R2'`
	r1, err := db.QueryContext(ctx, oneLit)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.QueryContext(ctx, twoLit)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != 0 {
		t.Fatalf("one-literal query matched %v, want none", formatRows(r1.Rows))
	}
	if len(r2.Rows) != 1 || r2.Rows[0][0].Format() != "2" {
		t.Fatalf("two-literal query got %v, want dept 2", formatRows(r2.Rows))
	}
	// Both must have been prepared cold: distinct keys, no false hit.
	if m := db.Metrics(); m.CacheHits != 0 || m.CacheMisses != 2 {
		t.Fatalf("hits=%d misses=%d, want 0 hits / 2 misses", m.CacheHits, m.CacheMisses)
	}
}

// TestPrepareArgCountFailsFast checks that a WithArgs binding-count mismatch
// is reported by PrepareContext itself, not deferred to the first execute.
func TestPrepareArgCountFailsFast(t *testing.T) {
	db := cacheTestDB(t)
	ctx := context.Background()
	if _, err := db.PrepareContext(ctx, paramViewQuery, WithArgs("R2", 100.0, 7)); err == nil ||
		!strings.Contains(err.Error(), "expects 2 parameter") {
		t.Fatalf("too many bindings at prepare: err = %v", err)
	}
	if _, err := db.PrepareContext(ctx, paramViewQuery, WithArgs("R2")); err == nil ||
		!strings.Contains(err.Error(), "expects 2 parameter") {
		t.Fatalf("too few bindings at prepare: err = %v", err)
	}
	// No WithArgs at prepare is fine: bindings may arrive per execute.
	p, err := db.PrepareContext(ctx, paramViewQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ExecuteContext(ctx, "R2", 100.0); err != nil {
		t.Fatal(err)
	}
}
