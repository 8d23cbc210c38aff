package core

import (
	"strings"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/opt"
	"starmagic/internal/qgm"
	"starmagic/internal/testutil"
)

// planOptimizeForTest runs the plan optimizer as the pipeline would between
// phases 1 and 2.
func planOptimizeForTest(g *qgm.Graph) opt.Result { return opt.Optimize(g) }

func paperDB(t *testing.T, nDepts, empsPerDept int) *testutil.DB {
	t.Helper()
	db, err := testutil.PaperSchema()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.LoadPaperData(nDepts, empsPerDept); err != nil {
		t.Fatal(err)
	}
	return db
}

func optimizeQuery(t *testing.T, db *testutil.DB, query string, o Options) *Result {
	t.Helper()
	g, err := db.Build(query)
	if err != nil {
		t.Fatalf("build %q: %v", query, err)
	}
	o.Validate = true
	res, err := Optimize(g, o)
	if err != nil {
		t.Fatalf("optimize %q: %v", query, err)
	}
	if err := res.Graph.Check(); err != nil {
		t.Fatalf("optimized graph invalid: %v\n%s", err, res.Graph.Dump())
	}
	return res
}

// The correctness corpus: every query is run unoptimized and through the
// full pipeline; results must agree exactly (as multisets).
var corpus = []string{
	testutil.QueryD,
	"SELECT empname, salary FROM mgrSal WHERE workdept = 2",
	"SELECT workdept, avgsalary FROM avgMgrSal WHERE workdept < 4",
	"SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s WHERE d.deptno = s.workdept AND d.deptname = 'Dept003'",
	"SELECT d.deptname, m.empname FROM department d, mgrSal m WHERE d.deptno = m.workdept AND d.deptname = 'Planning'",
	"SELECT e.empname FROM employee e, department d WHERE e.workdept = d.deptno AND d.deptname = 'Planning' AND e.salary > 500",
	"SELECT d.deptname FROM department d WHERE EXISTS (SELECT 1 FROM employee e WHERE e.workdept = d.deptno AND e.salary > 1900)",
	"SELECT e.empname FROM employee e WHERE e.workdept NOT IN (SELECT deptno FROM department WHERE deptname = 'Planning') AND e.salary > 1950",
	"SELECT a.workdept, a.avgsalary FROM avgMgrSal a, avgMgrSal b WHERE a.workdept = b.workdept AND a.avgsalary > 400",
	"SELECT d.deptname, s.workdept FROM department d, avgMgrSal s WHERE d.deptno = s.workdept AND d.deptname LIKE 'Planning%'",
	"SELECT m.empname FROM mgrSal m, department d WHERE m.workdept = d.deptno AND d.mgrno > m.empno",
	"SELECT workdept, COUNT(*) FROM employee GROUP BY workdept HAVING COUNT(*) > 2",
	"SELECT deptno FROM department WHERE deptno < 3 UNION SELECT workdept FROM employee WHERE salary > 1990",
	"SELECT e.empname FROM employee e WHERE e.salary > (SELECT AVG(e2.salary) FROM employee e2 WHERE e2.workdept = e.workdept) AND e.workdept = 1",
	"SELECT s.avgsalary FROM avgMgrSal s WHERE s.workdept IN (1, 2, 3)",
}

func TestPipelinePreservesSemantics(t *testing.T) {
	db := paperDB(t, 12, 6)
	for _, query := range corpus {
		ref, err := db.Build(query)
		if err != nil {
			t.Fatalf("build %q: %v", query, err)
		}
		want, _, err := db.Eval(ref)
		if err != nil {
			t.Fatalf("eval reference %q: %v", query, err)
		}
		res := optimizeQuery(t, db, query, Options{})
		got, _, err := db.Eval(res.Graph)
		if err != nil {
			t.Fatalf("eval optimized %q: %v\n%s", query, err, res.Graph.Dump())
		}
		if len(got) != len(want) {
			t.Errorf("%q: %d rows vs %d\ngot  %v\nwant %v\n%s", query, len(got), len(want), got, want, res.Graph.Dump())
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%q row %d: got %q want %q", query, i, got[i], want[i])
				break
			}
		}
	}
}

func TestEMSTNeverDegrades(t *testing.T) {
	db := paperDB(t, 12, 6)
	for _, query := range corpus {
		res := optimizeQuery(t, db, query, Options{})
		if res.UsedEMST && res.CostAfter > res.CostBefore {
			t.Errorf("%q: EMST used but cost degraded %v -> %v", query, res.CostBefore, res.CostAfter)
		}
		if !res.UsedEMST && res.CostAfter <= res.CostBefore && res.CostAfter != res.CostBefore {
			t.Errorf("%q: cheaper EMST plan rejected: %v vs %v", query, res.CostAfter, res.CostBefore)
		}
	}
}

func TestQueryDUsesEMST(t *testing.T) {
	db := paperDB(t, 40, 25)
	res := optimizeQuery(t, db, testutil.QueryD, Options{Snapshots: true})
	if !res.UsedEMST {
		t.Fatalf("query D should choose the EMST plan (%v vs %v)", res.CostBefore, res.CostAfter)
	}
	if res.CostAfter >= res.CostBefore {
		t.Errorf("EMST cost %v should beat original %v", res.CostAfter, res.CostBefore)
	}
}

// TestFigure4Shape pins the structural facts of the paper's Figure 4 for
// query D: phase 1 leaves QUERY -> GROUPBY -> T1 (plus two base tables);
// phase 2 introduces magic, supplementary-magic and adorned boxes; phase 3
// collapses them so that the final graph has exactly one extra box and one
// extra join compared with phase 1 ("the additional join is very
// inexpensive", §1).
func TestFigure4Shape(t *testing.T) {
	db := paperDB(t, 40, 25)
	res := optimizeQuery(t, db, testutil.QueryD, Options{Snapshots: true})
	byName := map[string]Phase{}
	for _, s := range res.Phases {
		byName[s.Name] = s
	}
	p1, ok1 := byName["phase1"]
	p2, ok2 := byName["phase2"]
	p3, ok3 := byName["phase3"]
	if !ok1 || !ok2 || !ok3 {
		t.Fatalf("missing snapshots: %v", res.Phases)
	}
	// Phase 1 (upper right of Figure 4): select box QUERY, group-by box,
	// T1 select box, two base tables.
	if p1.Boxes.SelectBoxes != 2 || p1.Boxes.GroupBys != 1 {
		t.Errorf("phase1 shape: %s\n%s", p1.Boxes, p1.Dump)
	}
	// Phase 2 (lower left): magic machinery present.
	if p2.Boxes.MagicBoxes == 0 {
		t.Errorf("phase2 has no magic boxes:\n%s", p2.Dump)
	}
	if !strings.Contains(p2.Dump, "supp-magic") {
		t.Errorf("phase2 missing supplementary-magic box:\n%s", p2.Dump)
	}
	if !strings.Contains(p2.Dump, "^bf") {
		t.Errorf("phase2 missing bf adornment:\n%s", p2.Dump)
	}
	// Phase 3 (lower right): exactly one extra box and one extra join
	// compared to phase 1.
	if got, want := p3.Boxes.Boxes-p1.Boxes.Boxes, 1; got != want {
		t.Errorf("phase3 extra boxes = %d; want %d\nphase1:\n%s\nphase3:\n%s",
			got, want, p1.Dump, p3.Dump)
	}
	if got, want := p3.Boxes.Joins-p1.Boxes.Joins, 1; got != want {
		t.Errorf("phase3 extra joins = %d; want %d\nphase3:\n%s", got, want, p3.Dump)
	}
}

// TestQueryDAdornments pins Example 2.3/4.1: the group-by view is adorned
// bf (workdept bound) and the restriction descends into its input box.
func TestQueryDAdornments(t *testing.T) {
	db := paperDB(t, 40, 25)
	res := optimizeQuery(t, db, testutil.QueryD, Options{Snapshots: true})
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if !strings.Contains(p2.Dump, "GB") || !strings.Contains(p2.Dump, "^bf") {
		t.Errorf("phase2 dump missing adorned group-by:\n%s", p2.Dump)
	}
	// The T1 box under the adorned group-by must carry a magic quantifier.
	if !strings.Contains(p2.Dump, "quant mg:F") {
		t.Errorf("no magic quantifier inserted:\n%s", p2.Dump)
	}
}

// TestDistinctDroppedFromMagic pins the phase-2 inference of Example 4.1:
// duplicate magic tuples provably cannot occur, so the magic tables lose
// their enforced DISTINCT (which is what lets phase 3 merge them away).
func TestDistinctDroppedFromMagic(t *testing.T) {
	db := paperDB(t, 40, 25)
	g, err := db.Build(testutil.QueryD)
	if err != nil {
		t.Fatal(err)
	}
	// Run phases manually to inspect the phase-2 graph.
	if err := runPhase(g, Options{Validate: true}, nil, Phase1Rules()...); err != nil {
		t.Fatal(err)
	}
	optimizePlans(t, g)
	if err := runPhase(g, Options{Validate: true}, nil, Phase2Rules()...); err != nil {
		t.Fatal(err)
	}
	sawMagic := false
	for _, b := range g.Reachable() {
		if b.Role == qgm.RoleMagic {
			sawMagic = true
			if b.Distinct == qgm.DistinctEnforce {
				t.Errorf("magic box %s still enforces DISTINCT\n%s", b.Name, g.Dump())
			}
		}
	}
	if !sawMagic {
		t.Fatalf("no magic boxes in phase-2 graph:\n%s", g.Dump())
	}
}

func optimizePlans(t *testing.T, g *qgm.Graph) {
	t.Helper()
	// plan optimization pass (join orders) without the pipeline wrapper
	_ = planOptimizeForTest(g)
}

// TestMagicRestrictsComputation verifies the headline effect: with EMST the
// executor touches far fewer rows than the original plan on a selective
// query over a large view.
func TestMagicRestrictsComputation(t *testing.T) {
	db := paperDB(t, 60, 40)
	// avgSal aggregates every employee; the query needs only one
	// department, which is exactly what magic exploits.
	query := "SELECT d.deptname, s.avgsalary FROM department d, avgSal s " +
		"WHERE d.deptno = s.workdept AND d.deptname = 'Planning'"
	orig := optimizeQuery(t, db, query, Options{Strategy: Original})
	wantRows, evOrig, err := db.Eval(orig.Graph)
	if err != nil {
		t.Fatal(err)
	}
	magic := optimizeQuery(t, db, query, Options{})
	gotRows, evMagic, err := db.Eval(magic.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRows) != len(gotRows) {
		t.Fatalf("result mismatch: %v vs %v", wantRows, gotRows)
	}
	for i := range wantRows {
		if wantRows[i] != gotRows[i] {
			t.Fatalf("row %d: %q vs %q", i, wantRows[i], gotRows[i])
		}
	}
	// The original plan aggregates every department; the magic plan only
	// the Planning department. OutputRows is the tell.
	if evMagic.Counters.OutputRows*4 > evOrig.Counters.OutputRows {
		t.Errorf("magic did not restrict computation: %d vs %d output rows\n%s",
			evMagic.Counters.OutputRows, evOrig.Counters.OutputRows, magic.Graph.Dump())
	}
}

// TestSharedViewSameAdornmentUnionsMagic: two consumers binding the same
// view column share one adorned copy whose magic table becomes a union of
// both contributions (§4.1: "The magic-box is either a select-box, or a
// union-box").
func TestSharedViewSameAdornmentUnionsMagic(t *testing.T) {
	db := paperDB(t, 12, 6)
	query := `SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Planning'
		UNION ALL
		SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s
		WHERE d.deptno = s.workdept AND d.deptname = 'Dept005'`
	ref, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Eval(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeQuery(t, db, query, Options{Snapshots: true})
	got, _, err := db.Eval(res.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("results differ:\ngot  %v\nwant %v\n%s", got, want, res.Graph.Dump())
	}
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if !strings.Contains(p2.Dump, "union") {
		t.Errorf("expected a union magic feed in phase 2:\n%s", p2.Dump)
	}
}

// TestConditionAdornment: a non-equality join predicate produces a 'c'
// adornment and a condition-magic box, and results stay correct.
func TestConditionAdornment(t *testing.T) {
	db := paperDB(t, 12, 6)
	// mgrSal is referenced twice so it stays a shared (unmerged) select box
	// into phase 2; the non-equality join predicate on m then yields a 'c'
	// adornment with a condition-magic box.
	query := "SELECT m.empname FROM department d, mgrSal m, mgrSal m2 " +
		"WHERE d.deptname = 'Planning' AND m.workdept > d.deptno AND m2.workdept = d.deptno"
	ref, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Eval(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeQuery(t, db, query, Options{Snapshots: true})
	got, _, err := db.Eval(res.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("results differ:\ngot  %v\nwant %v", got, want)
	}
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if !strings.Contains(p2.Dump, "^c") && !strings.Contains(p2.Dump, "cf") {
		// adornment like "cfff..." — look for cond-magic role instead
		if !strings.Contains(p2.Dump, "cond-magic") {
			t.Errorf("no condition adornment or cond-magic box in phase 2:\n%s", p2.Dump)
		}
	}
}

// TestAMQRegistry checks the §4.2 classification.
func TestAMQRegistry(t *testing.T) {
	if !IsAMQ(qgm.KindSelect) {
		t.Error("select must be AMQ")
	}
	for _, k := range []qgm.BoxKind{qgm.KindGroupBy, qgm.KindUnion, qgm.KindExcept, qgm.KindIntersect, qgm.KindBaseTable} {
		if IsAMQ(k) {
			t.Errorf("%v must be NMQ", k)
		}
	}
}

// TestAdornmentString checks §2's bcf notation.
func TestAdornmentString(t *testing.T) {
	bindings := []Binding{{Ord: 2, Eq: true}, {Ord: 0, Eq: false}}
	if got := adornmentString(4, bindings); got != "cfbf" {
		t.Errorf("adornment = %q; want cfbf", got)
	}
	if got := adornmentString(2, nil); got != "ff" {
		t.Errorf("adornment = %q; want ff", got)
	}
	if !allFree("ffff") || allFree("bf") || allFree("cf") {
		t.Error("allFree wrong")
	}
}

// TestNMQDescentThroughUnion: a view defined as a UNION receives the magic
// restriction in both branches.
func TestNMQDescentThroughUnion(t *testing.T) {
	db := paperDB(t, 12, 6)
	if err := db.Cat.AddView(&catalog.View{
		Name: "allpeople",
		SQL: "SELECT empno, workdept FROM employee WHERE salary > 400 " +
			"UNION ALL SELECT mgrno, deptno FROM department WHERE mgrno IS NOT NULL",
	}); err != nil {
		t.Fatal(err)
	}
	query := "SELECT p.empno FROM department d, allpeople p WHERE d.deptno = p.workdept AND d.deptname = 'Planning'"
	ref, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Eval(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeQuery(t, db, query, Options{Snapshots: true})
	got, _, err := db.Eval(res.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Errorf("results differ:\ngot  %v\nwant %v\n%s", got, want, res.Graph.Dump())
	}
	// Phase-2 graph: both union branches restricted by magic quantifiers.
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if n := strings.Count(p2.Dump, "quant mg:F"); n < 2 {
		t.Errorf("expected magic quantifiers in both union branches, found %d:\n%s", n, p2.Dump)
	}
}

func TestOriginalModeSkipsEMST(t *testing.T) {
	db := paperDB(t, 12, 6)
	res := optimizeQuery(t, db, testutil.QueryD, Options{Strategy: Original})
	if res.UsedEMST {
		t.Error("Original must not use EMST")
	}
	for _, b := range res.Graph.Reachable() {
		if b.IsMagic() {
			t.Errorf("magic box in original plan: %s", b.Name)
		}
	}
}

// TestSoakLargerScale reruns the correctness corpus at a larger data scale;
// skipped with -short.
func TestSoakLargerScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	db := paperDB(t, 80, 30)
	for _, query := range corpus {
		ref, err := db.Build(query)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := db.Eval(ref)
		if err != nil {
			t.Fatal(err)
		}
		res := optimizeQuery(t, db, query, Options{})
		got, _, err := db.Eval(res.Graph)
		if err != nil {
			t.Fatalf("%q: %v", query, err)
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Errorf("%q: results differ at scale", query)
		}
	}
}

// TestNestedSupplementaryChain: with a three-table prefix before two views,
// EMST builds supplementary boxes that chain (the second supplementary
// contains the first), sharing the join prefix between the query and every
// magic box — step 4a applied repeatedly.
func TestNestedSupplementaryChain(t *testing.T) {
	db := paperDB(t, 20, 8)
	query := `SELECT e.empname, s.avgsalary, m.avgsalary
		FROM department d, employee e, avgSal s, avgMgrSal m
		WHERE d.deptname = 'Planning' AND e.workdept = d.deptno
		  AND s.workdept = e.workdept AND m.workdept = d.deptno
		  AND e.salary > 400`
	ref, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Eval(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeQuery(t, db, query, Options{Snapshots: true})
	got, _, err := db.Eval(res.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("results differ:\ngot  %v\nwant %v", got, want)
	}
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if n := strings.Count(p2.Dump, "supp-magic"); n < 2 {
		t.Errorf("expected chained supplementary boxes, found %d:\n%s", n, p2.Dump)
	}
	// The chain: a later supplementary must reference an earlier one.
	found := false
	for _, b := range res.Graph.Reachable() {
		if b.Role != qgm.RoleSuppMagic {
			continue
		}
		for _, q := range b.Quantifiers {
			if q.Ranges.Role == qgm.RoleSuppMagic {
				found = true
			}
		}
	}
	if !found {
		// The chain may have been merged away in phase 3; check phase 2.
		found = strings.Count(p2.Dump, "<supp-magic>") >= 2
	}
	if !found {
		t.Errorf("no supplementary chain:\n%s", p2.Dump)
	}
}

// TestConditionWithSupplementaryPrefix: a 'c' binding whose other side
// comes from a multi-quantifier prefix that was factored into a
// supplementary box — the condition-magic box must read the prefix through
// the supplementary quantifier.
func TestConditionWithSupplementaryPrefix(t *testing.T) {
	db := paperDB(t, 15, 6)
	query := `SELECT m.empname FROM department d, employee x, mgrSal m, mgrSal m2
		WHERE d.deptname = 'Planning' AND x.workdept = d.deptno
		  AND m.workdept > x.workdept AND m2.workdept = d.deptno`
	ref, err := db.Build(query)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Eval(ref)
	if err != nil {
		t.Fatal(err)
	}
	res := optimizeQuery(t, db, query, Options{Snapshots: true})
	got, _, err := db.Eval(res.Graph)
	if err != nil {
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("results differ:\ngot  %v\nwant %v\n%s", got, want, res.Graph.Dump())
	}
}
