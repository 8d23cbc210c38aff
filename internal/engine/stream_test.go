package engine

import (
	"context"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"starmagic/internal/datum"
)

// TestStreamingMatchesMaterialized pits the executor against the reference
// evaluator (testutil.Reference, run on the bound graph before any rewrite)
// on random queries under every strategy: rows must match as bags.
func TestStreamingMatchesMaterialized(t *testing.T) {
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
	n := 200
	if testing.Short() {
		n = 50
	}
	gen := &queryGen{rng: rand.New(rand.NewSource(271828))}
	ctx := context.Background()
	for _, strategy := range []Strategy{EMST, Original, Correlated} {
		for i := 0; i < n; i++ {
			query := gen.query()
			want := bag(referenceRows(t, db, nil, query))
			res, err := db.QueryContext(ctx, query, WithStrategy(strategy))
			if err != nil {
				t.Fatalf("query %d %q: streaming: %v", i, query, err)
			}
			if res.Plan.Physical() == "" {
				t.Fatalf("query %d %q: streaming run reports no physical plan", i, query)
			}
			if got := bag(res.Rows); got != want {
				t.Fatalf("query %d %q (%v): streaming disagrees with the reference\ngot  %s\nwant %s",
					i, query, strategy, got, want)
			}
		}
	}
}

// streamBenchDB builds a 100k-row table alongside a small one for the
// early-exit assertions.
func streamBenchDB(t testing.TB, rows int) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE big (id INT, grp INT);
	CREATE TABLE small (id INT);
	INSERT INTO small VALUES (1), (2), (3);`); err != nil {
		t.Fatal(err)
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i % 97))}
	}
	if err := db.InsertRows("big", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSemiJoinShortCircuit is the issue's regression test: an EXISTS probe
// against a 100k-row build side must stop at the first witness, so the
// run's row counters stay orders of magnitude below the build side's size.
func TestSemiJoinShortCircuit(t *testing.T) {
	const rows = 100_000
	db := streamBenchDB(t, rows)
	const query = `SELECT s.id FROM small s WHERE EXISTS (SELECT 1 FROM big b)`

	stream, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if len(stream.Rows) != 3 {
		t.Fatalf("rows: stream=%d, want 3", len(stream.Rows))
	}
	// The streaming probe needs one batch of the build side to find its
	// witness; anything near the table size means the early exit is broken.
	if got := stream.Plan.Counters.BaseRows; got > rows/100 {
		t.Fatalf("streaming EXISTS read %d base rows, want far below %d", got, rows)
	}
}

// TestLimitPushdownShortCircuit checks the other early-exit path: a LIMIT
// above a scan-heavy query stops pulling once satisfied instead of
// materializing the full result.
func TestLimitPushdownShortCircuit(t *testing.T) {
	const rows = 100_000
	db := streamBenchDB(t, rows)
	const query = `SELECT b.id FROM big b WHERE b.id >= 10 LIMIT 5`

	stream, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceRows(t, db, nil, query)
	if got, want := strings.Join(rowsAsStrings(stream), ";"), strings.Join(rowsAsStrings(&Result{Rows: ref}), ";"); got != want {
		t.Fatalf("limit results disagree: got %s want %s", got, want)
	}
	if got := stream.Plan.Counters.BaseRows; got > rows/100 {
		t.Fatalf("streaming LIMIT read %d base rows, want far below %d", got, rows)
	}
}

// TestRowLimitAbortsFixpoint asserts WithRowLimit stops a recursive view
// between fixpoint rounds: the accumulated closure exceeding the budget
// aborts iteration rather than running the recursion to completion and
// truncating afterwards.
func TestRowLimitAbortsFixpoint(t *testing.T) {
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
	CREATE VIEW tc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;`); err != nil {
		t.Fatal(err)
	}
	// A 200-node chain: the full closure is ~20k rows, far over the budget.
	batch := make([]datum.Row, 200)
	for i := range batch {
		batch[i] = datum.Row{datum.Int(int64(i)), datum.Int(int64(i + 1))}
	}
	if err := db.InsertRows("edge", batch); err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []Strategy{Original, EMST} {
		_, err := db.QueryContext(context.Background(), "SELECT src, dst FROM tc",
			WithStrategy(strategy), WithRowLimit(500))
		if err == nil {
			t.Fatalf("%v: recursive query under WithRowLimit(500) succeeded, want budget error", strategy)
		}
		if !strings.Contains(err.Error(), "row budget") {
			t.Fatalf("%v: got error %q, want row budget error", strategy, err)
		}
	}
}

// TestEarlyCloseNoGoroutineLeak runs early-exiting queries (LIMIT above a
// hash join on a grouped view) repeatedly and checks the goroutine count
// returns to its baseline: closing a partially-consumed operator tree must
// strand no goroutine.
func TestEarlyCloseNoGoroutineLeak(t *testing.T) {
	db := streamBenchDB(t, 20_000)
	if _, err := db.Exec(`
	CREATE VIEW bigGroups (grp, cnt) AS
	  SELECT grp, COUNT(*) FROM big GROUPBY grp;`); err != nil {
		t.Fatal(err)
	}
	const query = `SELECT b.id, g.cnt FROM big b, bigGroups g WHERE b.grp = g.grp LIMIT 3`
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		res, err := db.QueryContext(context.Background(), query)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("got %d rows, want 3", len(res.Rows))
		}
	}
	// Allow the runtime a moment to retire finished goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after early-close runs", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancellationStopsStreaming checks a cancelled context aborts a
// streaming execution promptly with ctx.Err.
func TestCancellationStopsStreaming(t *testing.T) {
	db := streamBenchDB(t, 50_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx, `SELECT b1.id FROM big b1, big b2 WHERE b1.grp = b2.grp`)
	if err == nil {
		t.Fatal("cancelled query succeeded")
	}
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestExplainPhysicalTree asserts the acceptance criterion: ExplainContext
// exposes the lowered operator tree, and an executed query's PlanInfo
// carries per-operator counters.
func TestExplainPhysicalTree(t *testing.T) {
	db := newDB(t)
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	info, err := db.ExplainContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	if info.Physical == "" || len(info.Operators) == 0 {
		t.Fatal("ExplainContext has no physical plan")
	}
	if !strings.Contains(info.Physical, "scan") {
		t.Fatalf("physical plan missing scan operator:\n%s", info.Physical)
	}
	if !strings.Contains(info.String(), "physical plan:") {
		t.Fatal("ExplainInfo.String() missing physical plan section")
	}

	res, err := db.Query(query)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Physical() == "" {
		t.Fatal("executed result has no physical plan")
	}
	if !strings.Contains(res.Plan.Physical(), "rows=") {
		t.Fatalf("executed plan missing per-operator counters:\n%s", res.Plan.Physical())
	}
	var rooted bool
	for _, op := range res.Plan.Operators() {
		if op.Depth == 0 && op.Rows > 0 {
			rooted = true
		}
	}
	if !rooted {
		t.Fatalf("operator reports missing root row counts: %+v", res.Plan.Operators())
	}
}
