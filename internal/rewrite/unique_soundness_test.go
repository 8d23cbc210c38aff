package rewrite

import (
	"testing"

	"starmagic/internal/qgm"
	"starmagic/internal/testutil"
)

// TestDuplicateFreeSoundness checks the key-inference engine against
// reality: for every box of every corpus query that UniqueSets claims a
// unique set for, materialize the box and verify no two rows agree on that
// set. The distinct pull-up rule (and therefore the phase-3 merges of magic
// tables) is only sound if this inference never lies.
func TestDuplicateFreeSoundness(t *testing.T) {
	cat, store := testDB(t)
	queries := append([]string{}, equivalenceCorpus...)
	queries = append(queries,
		"SELECT DISTINCT e.workdept, e.salary FROM employee e",
		"SELECT e.empno, e.empname FROM employee e, department d WHERE e.workdept = d.deptno",
		"SELECT workdept, COUNT(*) FROM employee GROUP BY workdept",
		"SELECT AVG(salary) FROM employee",
		"SELECT d.deptno, e.empno FROM department d, employee e",
	)
	for _, query := range queries {
		g := buildGraph(t, cat, query)
		// Also exercise the rewritten forms.
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				runEngine(t, g, phase1Engine())
			}
			for _, b := range g.Reachable() {
				sets := UniqueSets(b)
				if len(sets) == 0 {
					continue
				}
				// Skip correlated boxes: they cannot be materialized
				// standalone.
				rows, err := testutil.Reference(&qgm.Graph{Top: b, Limit: -1}, store.LiveView(), nil)
				if err != nil {
					continue
				}
				for _, set := range sets {
					seen := map[string]bool{}
					for _, row := range rows {
						key := row.KeyOf(set)
						if seen[key] {
							t.Fatalf("query %q pass %d: box %s claimed unique on %v but produced duplicates\n%s",
								query, pass, b.Name, set, g.Dump())
						}
						seen[key] = true
					}
				}
			}
		}
	}
}

// TestDuplicateFreeSoundnessWithMagic runs the same soundness check on
// graphs after the full EMST pipeline (magic boxes included), via the core
// package's pipeline exercised from the engine-level corpus in other tests;
// here we at least verify the phase-1 + pushdown + distinct-pullup
// combination leaves no false Permit.
func TestDistinctPermitImpliesDuplicateFree(t *testing.T) {
	cat, store := testDB(t)
	for _, query := range equivalenceCorpus {
		g := buildGraph(t, cat, query)
		runEngine(t, g, phase1Engine())
		for _, b := range g.Reachable() {
			if b.Distinct != qgm.DistinctPermit {
				continue
			}
			rows, err := testutil.Reference(&qgm.Graph{Top: b, Limit: -1}, store.LiveView(), nil)
			if err != nil {
				continue
			}
			seen := map[string]bool{}
			for _, row := range rows {
				key := row.Key()
				if seen[key] {
					t.Fatalf("query %q: Permit box %s produced duplicate rows\n%s", query, b.Name, g.Dump())
				}
				seen[key] = true
			}
		}
	}
}
