package engine

import (
	"context"
	"strings"
	"testing"
)

// TestGovernedMemoization checks that the evaluator's memoization caches —
// closed-box memo, correlated subquery caches, recursive fixpoint sets —
// run under the memory budget: queries whose caches outgrow the budget
// still succeed (insertion is skipped, work is recomputed), results match
// the unlimited run exactly, the budget's high-water mark stays under the
// cap, and the governor drains fully afterwards.
func TestGovernedMemoization(t *testing.T) {
	db := spillDB(t)
	ctx := context.Background()
	queries := []string{
		// The shared view subtree materializes ~1.5k rows — far beyond the
		// budget — and is referenced twice, so an ungoverned memo would hold
		// it resident while a governed one must skip or evict.
		`SELECT b1.empno FROM bigEarners b1, bigEarners b2
		 WHERE b1.empno = b2.empno AND b1.salary > 900`,
		// Correlated scalar subquery: one cache entry per distinct
		// correlation value of a 1.5k-row outer.
		`SELECT e.empno FROM employee e
		 WHERE e.salary > (SELECT AVG(salary) FROM employee e2 WHERE e2.workdept = e.workdept)
		 AND e.empno < 1100`,
		// Recursive fixpoint: the accumulated set must stay resident, and a
		// few-KB budget comfortably holds this closure.
		`SELECT r.src, e.empname FROM reach r, employee e WHERE r.dst = e.empno`,
	}
	for _, limit := range []int64{8 << 10, 64 << 10} {
		for _, query := range queries {
			ref, err := db.QueryContext(ctx, query)
			if err != nil {
				t.Fatalf("%q unlimited: %v", query, err)
			}
			if got, want := bag(ref.Rows), bag(referenceRows(t, db, nil, query)); got != want {
				t.Fatalf("%q unlimited disagrees with the reference\ngot  %s\nwant %s", query, got, want)
			}
			want := strings.Join(rowsAsStrings(ref), ";")
			res, err := db.QueryContext(ctx, query, WithMemoryLimit(limit))
			if err != nil {
				t.Fatalf("%q under %d: %v", query, limit, err)
			}
			if got := strings.Join(rowsAsStrings(res), ";"); got != want {
				t.Fatalf("%q under %d disagrees with unlimited\ngot  %s\nwant %s",
					query, limit, got, want)
			}
			if peak := res.Plan.Mem.PeakBytes; peak > limit {
				t.Fatalf("%q: peak %d exceeds budget %d", query, peak, limit)
			}
		}
	}
	if used := db.ResourceStats().UsedBytes; used != 0 {
		t.Fatalf("governor leaks %d bytes after governed-memoization workload", used)
	}
}
