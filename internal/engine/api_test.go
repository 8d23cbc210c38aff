package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"starmagic/internal/core"
	"starmagic/internal/datum"
	"starmagic/internal/exec"
	"starmagic/internal/obs"
	"starmagic/internal/opt"
	"starmagic/internal/plan"
	"starmagic/internal/rewrite"
	"starmagic/internal/semant"
	"starmagic/internal/sql"
)

// denseGraphDB builds a strongly connected graph whose transitive closure
// has n^2 pairs — a recursive query big enough to be cancelled mid-flight.
func denseGraphDB(t *testing.T, n int) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE edge (src INT, dst INT, PRIMARY KEY (src, dst));
	CREATE INDEX edge_src ON edge (src);
	CREATE VIEW tc (src, dst) AS
	  SELECT src, dst FROM edge
	  UNION
	  SELECT t.src, e.dst FROM tc t, edge e WHERE t.dst = e.src;
	`); err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 0, 2*n)
	for i := 0; i < n; i++ {
		rows = append(rows,
			datum.Row{datum.Int(int64(i)), datum.Int(int64((i + 1) % n))},
			datum.Row{datum.Int(int64(i)), datum.Int(int64((i + 3) % n))},
		)
	}
	if err := db.InsertRows("edge", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestQueryContextCancelRecursive is the issue's acceptance scenario: a
// cancelled context must abort a running recursive query, returning
// context.Canceled promptly and leaking no goroutines.
func TestQueryContextCancelRecursive(t *testing.T) {
	db := denseGraphDB(t, 600)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM tc")
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (after %v); want context.Canceled", err, elapsed)
	}
	// "Promptly": far sooner than the seconds the full closure takes.
	if elapsed > 2*time.Second {
		t.Errorf("query took %v to notice cancellation", elapsed)
	}
	// No goroutine leak: any executor workers must wind down.
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before+1 {
		t.Errorf("goroutines: %d before, %d after cancellation", before, got)
	}
}

// TestQueryContextCancelParallel cancels a recursive query from another
// goroutine while its fixpoint runs.
func TestQueryContextCancelParallel(t *testing.T) {
	db := denseGraphDB(t, 600)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM tc")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", err)
	}
}

func TestQueryContextPreCancelled(t *testing.T) {
	db := newDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "SELECT empno FROM employee"); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled ctx: err = %v; want context.Canceled", err)
	}
}

func TestQueryContextDeadline(t *testing.T) {
	db := denseGraphDB(t, 600)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, "SELECT COUNT(*) FROM tc")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v; want context.DeadlineExceeded", err)
	}
}

// TestTracerPhaseCoverage asserts the issue's span contract: with tracing
// enabled every Figure 2/3 phase emits exactly one span.
func TestTracerPhaseCoverage(t *testing.T) {
	cases := []struct {
		strategy Strategy
		phases   []string
	}{
		{EMST, []string{"parse", "bind", "phase1", "plan-opt1", "phase2", "phase3", "plan-opt2", "lower", "execute"}},
		{Original, []string{"parse", "bind", "phase1", "plan-opt1", "lower", "execute"}},
		{Correlated, []string{"parse", "bind", "phase1", "plan-opt1", "correlate", "plan-opt2", "lower", "execute"}},
	}
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	for _, tc := range cases {
		t.Run(tc.strategy.String(), func(t *testing.T) {
			db := newDB(t)
			rec := obs.NewRecorder()
			if _, err := db.QueryContext(context.Background(), query,
				WithStrategy(tc.strategy), WithTracer(rec)); err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, s := range rec.Spans() {
				names = append(names, s.Name)
			}
			if got, want := strings.Join(names, " "), strings.Join(tc.phases, " "); got != want {
				t.Errorf("spans:\ngot  %s\nwant %s", got, want)
			}
			for _, s := range rec.Spans() {
				if s.Duration < 0 {
					t.Errorf("span %s has negative duration %v", s.Name, s.Duration)
				}
			}
		})
	}
}

// TestExplainContextStructured checks the structured explain output: phase
// timings, QGM snapshots, rule-fire counts, and the cost comparison.
func TestExplainContextStructured(t *testing.T) {
	db := newDB(t)
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	info, err := db.ExplainContext(context.Background(), query)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"parse", "bind", "phase1", "plan-opt1", "phase2", "phase3", "plan-opt2"} {
		if _, ok := info.Phase(name); !ok {
			t.Errorf("phase %q missing from ExplainInfo", name)
		}
	}
	for _, name := range []string{"initial", "phase1", "phase2", "phase3"} {
		p, ok := info.Phase(name)
		if !ok || !p.HasSnapshot {
			t.Errorf("phase %q has no QGM snapshot", name)
			continue
		}
		if p.Dump == "" || p.DOT == "" || p.Boxes.Boxes == 0 {
			t.Errorf("phase %q snapshot incomplete: dump=%d dot=%d boxes=%d",
				name, len(p.Dump), len(p.DOT), p.Boxes.Boxes)
		}
	}
	// Query D fires magic (phase 2) and merge (phase 1) at minimum.
	if info.RuleFires("emst") == 0 {
		t.Errorf("emst rule fires = 0; rules = %+v", info.Rules)
	}
	if info.RuleFires("merge") == 0 {
		t.Errorf("merge rule fires = 0; rules = %+v", info.Rules)
	}
	if info.RuleFires("no-such-rule") != 0 {
		t.Error("unknown rule reports fires")
	}
	if info.CostBefore <= 0 || info.CostAfter <= 0 {
		t.Errorf("costs %v/%v; want positive", info.CostBefore, info.CostAfter)
	}
	if !info.UsedEMST {
		t.Error("query D should choose the EMST plan")
	}
	if info.PlanDOT == "" {
		t.Error("PlanDOT missing")
	}
	if len(info.JoinOrders) == 0 {
		t.Error("no join orders reported")
	}
	// The rendered text keeps the legacy markers.
	text := info.String()
	for _, want := range []string{"initial", "phase1", "phase2", "phase3", "cost before EMST", "magic", "rules:", "phases:"} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q", want)
		}
	}
}

// TestCorrelatedPlanAccounting stages the Correlated strategy by hand —
// phase-1 rewrite, plan optimization, view correlation, plan optimization,
// lowering — and checks ExplainContext against it: PlansConsidered sums both
// plan optimizations, and both costs are the cost of the only plan produced,
// which is the one lowered.
func TestCorrelatedPlanAccounting(t *testing.T) {
	db := newDB(t)
	db.Analyze() // the statistics ExplainContext would freshen first
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	q, err := sql.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	g, err := semant.NewBuilder(db.Catalog()).Build(q)
	if err != nil {
		t.Fatal(err)
	}
	if err := rewrite.NewEngine(core.Phase1Rules()...).Run(&rewrite.Context{G: g}); err != nil {
		t.Fatal(err)
	}
	noHist := !db.HistogramsEnabled()
	r1 := opt.OptimizeEst(g, opt.NewEstimatorWith(nil, noHist))
	rewrite.CorrelateViews(g)
	r2 := opt.OptimizeEst(g, opt.NewEstimatorWith(nil, noHist))
	phys := plan.LowerWith(g, opt.NewEstimatorWith(nil, noHist))

	info, err := db.ExplainContext(context.Background(), query, WithStrategy(Correlated))
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlansConsidered == 0 || r2.PlansConsidered == 0 {
		t.Fatalf("staged plan optimizations examined %d and %d plans", r1.PlansConsidered, r2.PlansConsidered)
	}
	if got, want := info.PlansConsidered, r1.PlansConsidered+r2.PlansConsidered; got != want {
		t.Errorf("PlansConsidered = %d; want plan-opt1 %d + plan-opt2 %d", got, r1.PlansConsidered, r2.PlansConsidered)
	}
	if info.CostBefore != r2.Cost || info.CostAfter != r2.Cost {
		t.Errorf("costs %v/%v; want plan-opt2's %v for both", info.CostBefore, info.CostAfter, r2.Cost)
	}
	if info.UsedEMST {
		t.Error("Correlated reports the EMST plan")
	}
	if info.Physical != phys.String() {
		t.Errorf("physical plan:\ngot  %s\nwant %s", info.Physical, phys.String())
	}
}

// TestExplainListsOnlyTimedPhases: a snapshot taken where no stage ran —
// the initial graph, Correlated's correlated graph — keeps its panel in the
// EXPLAIN text but gets no line under "phases:", where every line is a
// stage's wall-clock.
func TestExplainListsOnlyTimedPhases(t *testing.T) {
	db := newDB(t)
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'`
	info, err := db.ExplainContext(context.Background(), query, WithStrategy(Correlated))
	if err != nil {
		t.Fatal(err)
	}
	text := info.String()
	for _, panel := range []string{"-- initial --", "-- correlated --"} {
		if !strings.Contains(text, panel) {
			t.Errorf("EXPLAIN lost the %q panel:\n%s", panel, text)
		}
	}
	_, timings, _ := strings.Cut(text, "phases:\n")
	timings, _, _ = strings.Cut(timings, "rules:\n")
	if !strings.Contains(timings, "  correlate ") {
		t.Errorf("phases list has no correlate stage:\n%s", timings)
	}
	for _, line := range strings.Split(timings, "\n") {
		if f := strings.Fields(line); len(f) > 0 && (f[0] == "initial" || f[0] == "correlated") {
			t.Errorf("snapshot listed as a phase: %q", line)
		}
	}
}

// TestPreparedCountersReset verifies each execution reports its own
// counters: N identical runs each see the same work, not a running total.
func TestPreparedCountersReset(t *testing.T) {
	db := newDB(t)
	p, err := db.PrepareContext(context.Background(),
		"SELECT workdept, AVG(salary) FROM employee GROUPBY workdept")
	if err != nil {
		t.Fatal(err)
	}
	var first exec.Counters
	for i := 0; i < 3; i++ {
		res, err := p.ExecuteContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.Plan.Counters
			if first.BaseRows == 0 {
				t.Fatal("first run scanned no base rows")
			}
			continue
		}
		if res.Plan.Counters != first {
			t.Errorf("run %d counters %+v; want %+v (per-run, not cumulative)",
				i, res.Plan.Counters, first)
		}
	}
}

func TestParseStrategyErrors(t *testing.T) {
	good := map[string]Strategy{
		"emst": EMST, "EMST": EMST, "magic": EMST,
		"original": Original, "orig": Original,
		"correlated": Correlated, "corr": Correlated,
	}
	for name, want := range good {
		s, err := ParseStrategy(name)
		if err != nil || s != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v, nil", name, s, err, want)
		}
	}
	for _, name := range []string{"", "emst ", "semi-naive", "Original!", "c"} {
		if s, err := ParseStrategy(name); err == nil {
			t.Errorf("ParseStrategy(%q) = %v; want error", name, s)
		} else if !strings.Contains(err.Error(), "strategy") {
			t.Errorf("ParseStrategy(%q) error %q does not name the problem", name, err)
		}
	}
}

func TestWithRowLimit(t *testing.T) {
	db := denseGraphDB(t, 80) // closure has 6400 pairs
	_, err := db.QueryContext(context.Background(), "SELECT src, dst FROM tc", WithRowLimit(100))
	if err == nil || !strings.Contains(err.Error(), "row budget") {
		t.Errorf("err = %v; want row-limit error", err)
	}
	res, err := db.QueryContext(context.Background(),
		"SELECT dst FROM tc WHERE src = 0 AND dst = 1", WithRowLimit(1_000_000))
	if err != nil || len(res.Rows) != 1 {
		t.Errorf("generous limit: res=%v err=%v", res, err)
	}
}

// TestConcurrentQueryContext hammers one database from many goroutines with
// mixed strategies and tracers under -race.
func TestConcurrentQueryContext(t *testing.T) {
	db := newDB(t)
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND s.avgsalary > 100`
	want := func() string {
		res, err := db.Query(query)
		if err != nil {
			t.Fatal(err)
		}
		return canonical(res)
	}()

	const goroutines = 16
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	strategies := []Strategy{EMST, Original, Correlated}
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				opts := []QueryOption{WithStrategy(strategies[(i+j)%len(strategies)])}
				if j%2 == 0 {
					opts = append(opts, WithTracer(obs.NewRecorder()))
				}
				res, err := db.QueryContext(context.Background(), query, opts...)
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d: %v", i, err)
					return
				}
				if got := canonical(res); got != want {
					errCh <- fmt.Errorf("goroutine %d: got %s want %s", i, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	m := db.Metrics()
	if m.Queries != goroutines*8+1 {
		t.Errorf("metrics queries = %d; want %d", m.Queries, goroutines*8+1)
	}
	if m.Errors != 0 {
		t.Errorf("metrics errors = %d", m.Errors)
	}
}

// TestMetricsLifecycle walks the sink through successes, a parse error, and
// a reset via the public API.
func TestMetricsLifecycle(t *testing.T) {
	db := newDB(t)
	ctx := context.Background()
	if _, err := db.QueryContext(ctx, "SELECT empno FROM employee"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.QueryContext(ctx, "SELECT FROM nonsense ("); err == nil {
		t.Fatal("bad query succeeded")
	}
	p, err := db.PrepareContext(ctx, "SELECT COUNT(*) FROM employee")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.ExecuteContext(ctx); err != nil {
			t.Fatal(err)
		}
	}
	m := db.Metrics()
	// 2 successful plans + 1 failed; 1 + 2 executions.
	if m.Plans != 3 || m.Queries != 3 || m.Errors != 1 {
		t.Errorf("plans=%d queries=%d errors=%d; want 3, 3, 1", m.Plans, m.Queries, m.Errors)
	}
	if m.ByStrategy["emst"] != 3 {
		t.Errorf("by strategy = %v", m.ByStrategy)
	}
	if m.Exec.BaseRows == 0 || m.Exec.OutputRows == 0 {
		t.Errorf("exec stats empty: %+v", m.Exec)
	}
	db.ResetMetrics()
	if m2 := db.Metrics(); m2.Plans != 0 || m2.Queries != 0 {
		t.Errorf("after reset: %+v", m2)
	}
}
