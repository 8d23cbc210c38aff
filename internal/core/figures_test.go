package core

import (
	"strings"
	"testing"

	"starmagic/internal/catalog"
	"starmagic/internal/opt"
	"starmagic/internal/qgm"
	"starmagic/internal/rewrite"
	"starmagic/internal/testutil"
)

// TestFigure3Phases pins Figure 3's phase gating: the EMST rule fires
// during phase 2 and ONLY phase 2.
func TestFigure3Phases(t *testing.T) {
	db := paperDB(t, 12, 6)
	g, err := db.Build(testutil.QueryD)
	if err != nil {
		t.Fatal(err)
	}
	firedByPhase := map[string]map[string]bool{}
	run := func(phase string, rules []rewrite.Rule) {
		firedByPhase[phase] = map[string]bool{}
		o := Options{Trace: func(rule string, _ *qgm.Box) { firedByPhase[phase][rule] = true }}
		if err := runPhase(g, o, nil, rules...); err != nil {
			t.Fatal(err)
		}
	}
	run("phase1", Phase1Rules())
	opt.Optimize(g)
	run("phase2", Phase2Rules())
	clearMagicLinks(g)
	run("phase3", Phase3Rules())

	if firedByPhase["phase1"]["emst"] {
		t.Error("EMST fired in phase 1")
	}
	if !firedByPhase["phase2"]["emst"] {
		t.Error("EMST did not fire in phase 2")
	}
	if firedByPhase["phase3"]["emst"] {
		t.Error("EMST fired in phase 3")
	}
	// Traditional rules do fire around it.
	if !firedByPhase["phase1"]["merge"] {
		t.Error("merge did not fire in phase 1")
	}
	if !firedByPhase["phase3"]["merge"] {
		t.Error("merge did not fire in phase 3 (magic simplification)")
	}
}

// TestExceptViewMagicDescent: a view defined as EXCEPT passes the magic
// restriction into BOTH branches (positional NMQ mapping), and results
// remain correct.
func TestExceptViewMagicDescent(t *testing.T) {
	db := paperDB(t, 20, 8)
	if err := db.Cat.AddView(&catalog.View{
		Name: "nonmanagers",
		SQL: "SELECT empno, workdept FROM employee WHERE workdept IS NOT NULL " +
			"EXCEPT SELECT mgrno, deptno FROM department WHERE mgrno IS NOT NULL",
	}); err != nil {
		t.Fatal(err)
	}
	query := "SELECT n.empno FROM department d, nonmanagers n WHERE d.deptno = n.workdept AND d.deptname = 'Planning'"
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
	var p2 Phase
	for _, s := range res.Phases {
		if s.Name == "phase2" {
			p2 = s
		}
	}
	if n := strings.Count(p2.Dump, "quant mg:F"); n < 2 {
		t.Errorf("expected magic quantifiers in both EXCEPT branches, found %d:\n%s", n, p2.Dump)
	}
}

// TestIntersectViewMagicDescent mirrors the EXCEPT test for INTERSECT.
func TestIntersectViewMagicDescent(t *testing.T) {
	db := paperDB(t, 20, 8)
	if err := db.Cat.AddView(&catalog.View{
		Name: "mgrdepts",
		SQL: "SELECT workdept FROM employee WHERE workdept IS NOT NULL " +
			"INTERSECT SELECT deptno FROM department WHERE mgrno IS NOT NULL",
	}); err != nil {
		t.Fatal(err)
	}
	query := "SELECT m.workdept FROM department d, mgrdepts m WHERE d.deptno = m.workdept AND d.deptname LIKE 'Planning%'"
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
		t.Fatalf("eval: %v\n%s", err, res.Graph.Dump())
	}
	if strings.Join(got, ";") != strings.Join(want, ";") {
		t.Fatalf("results differ:\ngot  %v\nwant %v", got, want)
	}
}

// TestEMSTTraversalOrderIndependence verifies §5's claim: "The EMST rule
// can be applied to the QGM boxes in any order of traversal, achieving the
// same final transformation." We run phase 2 under depth-first, reversed,
// and ID-shuffled traversals and compare both the results and the final
// structural statistics.
func TestEMSTTraversalOrderIndependence(t *testing.T) {
	db := paperDB(t, 12, 6)
	queries := []string{
		testutil.QueryD,
		"SELECT d.deptname, s.avgsalary FROM department d, avgSal s WHERE d.deptno = s.workdept AND d.deptname = 'Planning'",
		"SELECT a.workdept, a.avgsalary FROM avgMgrSal a, avgMgrSal b WHERE a.workdept = b.workdept AND a.avgsalary > 400",
	}
	traversals := map[string]func([]*qgm.Box) []*qgm.Box{
		"depth-first": nil,
		"reversed": func(bs []*qgm.Box) []*qgm.Box {
			out := make([]*qgm.Box, len(bs))
			for i, b := range bs {
				out[len(bs)-1-i] = b
			}
			return out
		},
		"rotated": func(bs []*qgm.Box) []*qgm.Box {
			if len(bs) < 2 {
				return bs
			}
			return append(append([]*qgm.Box{}, bs[len(bs)/2:]...), bs[:len(bs)/2]...)
		},
	}
	for _, query := range queries {
		var wantRows string
		var wantStats qgm.Stats
		first := true
		for name, trav := range traversals {
			g, err := db.Build(query)
			if err != nil {
				t.Fatal(err)
			}
			if err := runPhaseWithTraversal(g, Phase1Rules(), nil); err != nil {
				t.Fatal(err)
			}
			opt.Optimize(g)
			if err := runPhaseWithTraversal(g, Phase2Rules(), trav); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			clearMagicLinks(g)
			if err := runPhaseWithTraversal(g, Phase3Rules(), nil); err != nil {
				t.Fatal(err)
			}
			opt.Optimize(g)
			rows, _, err := db.Eval(g)
			if err != nil {
				t.Fatalf("%s eval: %v\n%s", name, err, g.Dump())
			}
			rowsS := strings.Join(rows, ";")
			stats := g.Stats()
			if first {
				wantRows, wantStats = rowsS, stats
				first = false
				continue
			}
			if rowsS != wantRows {
				t.Errorf("%q traversal %s: results differ", query, name)
			}
			if stats != wantStats {
				t.Errorf("%q traversal %s: final structure differs: %s vs %s", query, name, stats, wantStats)
			}
		}
	}
}

func runPhaseWithTraversal(g *qgm.Graph, rules []rewrite.Rule, trav func([]*qgm.Box) []*qgm.Box) error {
	engine := rewrite.NewEngine(rules...)
	return engine.Run(&rewrite.Context{G: g, Validate: true, Traversal: trav})
}

// TestRecursionBoundInvariantAnalysis exercises the safety check behind
// magic-on-recursion directly: left-linear TC is invariant in the bound
// column, right-linear TC is invariant only in the other column.
func TestRecursionBoundInvariantAnalysis(t *testing.T) {
	db := paperDB(t, 6, 3)
	if err := db.Cat.AddView(&catalog.View{
		Name:    "ll",
		Columns: []string{"src", "dst"},
		SQL: "SELECT mgrno, deptno FROM department WHERE mgrno IS NOT NULL UNION " +
			"SELECT t.src, d.deptno FROM ll t, department d WHERE t.dst = d.mgrno",
	}); err != nil {
		t.Fatal(err)
	}
	g, err := db.Build("SELECT dst FROM ll WHERE src = 1")
	if err != nil {
		t.Fatal(err)
	}
	var root *qgm.Box
	for _, b := range g.Reachable() {
		if b.Recursive {
			root = b
		}
	}
	if root == nil {
		t.Fatal("no fixpoint root")
	}
	if !recursionBoundInvariant(root, 0) {
		t.Error("left-linear src should be invariant")
	}
	if recursionBoundInvariant(root, 1) {
		t.Error("left-linear dst should NOT be invariant (it advances)")
	}
}

// TestRegisterBoxKindRoundTrip covers the extension registry.
func TestRegisterBoxKindRoundTrip(t *testing.T) {
	kind := qgm.KindExtensionStart + 33
	if IsAMQ(kind) {
		t.Error("unregistered kind must default to NMQ")
	}
	RegisterBoxKind(kind, true, nil)
	if !IsAMQ(kind) {
		t.Error("registered AMQ kind not recognized")
	}
	RegisterBoxKind(kind, false, func(b *qgm.Box, ord int) []QuantBinding { return nil })
	if IsAMQ(kind) {
		t.Error("re-registration did not apply")
	}
}
