package engine

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// TestConcurrentMixedStrategyQueries runs mixed-strategy queries from many goroutines
// against one database — with concurrent inserts into an unrelated table —
// and asserts every result is identical to serial execution. This is the
// end-to-end race test for concurrent executions and the storage RWMutex.
func TestConcurrentMixedStrategyQueries(t *testing.T) {
	db := newDB(t)
	if _, err := db.Exec(`CREATE TABLE noise (id INT, payload VARCHAR(20))`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT d.deptname, s.avgsalary FROM department d, avgMgrSal s WHERE d.deptno = s.workdept AND s.avgsalary > 100`,
		`SELECT empname FROM employee WHERE salary > (SELECT AVG(salary) FROM employee)`,
		`SELECT m.empno FROM mgrSal m, avgMgrSal a WHERE m.workdept = a.workdept`,
	}
	strategies := []Strategy{EMST, Original, Correlated}

	// Serial ground truth, per (query, strategy), compared as sorted bags so
	// strategy-specific row order differences don't matter.
	sortedRows := func(res *Result) []string {
		rows := rowsAsStrings(res)
		sort.Strings(rows)
		return rows
	}
	expected := map[string][]string{}
	for _, q := range queries {
		for _, s := range strategies {
			res, err := db.QueryWith(q, s)
			if err != nil {
				t.Fatalf("serial %s %q: %v", s, q, err)
			}
			expected[q+"|"+s.String()] = sortedRows(res)
		}
	}

	const goroutines = 12
	const iters = 6
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines+1)

	// Writer: concurrent inserts into a table the queries never touch, so
	// query results stay comparable while DDL/DML locking is exercised.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			stmt := fmt.Sprintf("INSERT INTO noise VALUES (%d, 'p%d')", i, i)
			if _, err := db.Exec(stmt); err != nil {
				errCh <- fmt.Errorf("insert %d: %w", i, err)
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := queries[g%len(queries)]
			s := strategies[(g/len(queries))%len(strategies)]
			want := expected[q+"|"+s.String()]
			for i := 0; i < iters; i++ {
				res, err := db.QueryWith(q, s)
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d (%s): %w", g, s, err)
					return
				}
				got := sortedRows(res)
				if len(got) != len(want) {
					errCh <- fmt.Errorf("goroutine %d (%s %q): %d rows, want %d", g, s, q, len(got), len(want))
					return
				}
				for j := range want {
					if got[j] != want[j] {
						errCh <- fmt.Errorf("goroutine %d (%s %q) row %d: %q != %q", g, s, q, j, got[j], want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The noise table must have every concurrent insert.
	res, err := db.Query(`SELECT COUNT(*) FROM noise`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsAsStrings(res); len(got) != 1 || got[0] != "40" {
		t.Errorf("noise count = %v; want [40]", got)
	}
}
