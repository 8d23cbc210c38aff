package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"starmagic/internal/datum"
)

// replaceDB holds a(k, v) with k = 1..5 and b(k, w) with one row per a row.
func replaceDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	mustExecT(t, db, `CREATE TABLE a (k INT, v INT, PRIMARY KEY (k));
CREATE TABLE b (k INT, w INT);
INSERT INTO a VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50);
INSERT INTO b VALUES (1, 101), (2, 102), (3, 103), (4, 104), (5, 105)`)
	return db
}

// freshAnswer is what a new prepare of query answers now.
func freshAnswer(t *testing.T, db *Database, query string) string {
	t.Helper()
	res, err := db.Query(query)
	if err != nil {
		t.Fatalf("fresh %s: %v", query, err)
	}
	return sortedAnswer(t, res)
}

// TestHeldPlansFollowTheCatalog: a plan runs only against the tables it was
// made for. A Prepared held across DDL prepares its text again before it
// runs; a transaction whose snapshot predates a table's replacement gets an
// error naming the table, never rows of the other table's shape.
func TestHeldPlansFollowTheCatalog(t *testing.T) {
	const join = `SELECT a.v, b.w FROM a, b WHERE a.k = b.k`

	t.Run("replace swaps columns", func(t *testing.T) {
		db := replaceDB(t)
		p, err := db.Prepare(join, EMST)
		if err != nil {
			t.Fatal(err)
		}
		mustExecT(t, db, `DROP TABLE b; CREATE TABLE b (w INT, k INT);
INSERT INTO b VALUES (201, 1), (202, 2), (203, 3), (204, 4), (205, 1)`)
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedAnswer(t, res), freshAnswer(t, db, join); got != want || len(res.Rows) != 5 {
			t.Errorf("held plan answered %d rows %s, a fresh prepare %s", len(res.Rows), got, want)
		}
	})

	t.Run("replace changes a column type", func(t *testing.T) {
		db := replaceDB(t)
		const q = `SELECT b.k FROM b WHERE b.w > 101`
		p, err := db.Prepare(q, EMST)
		if err != nil {
			t.Fatal(err)
		}
		mustExecT(t, db, `DROP TABLE b; CREATE TABLE b (k INT, w FLOAT);
INSERT INTO b VALUES (1, 100.5), (2, 102.5), (7, 300.0)`)
		res, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedAnswer(t, res), freshAnswer(t, db, q); got != want {
			t.Errorf("held plan answered %s, a fresh prepare %s", got, want)
		}
	})

	t.Run("transaction predates the replace", func(t *testing.T) {
		db := replaceDB(t)
		tx := db.Begin()
		defer tx.Rollback()
		mustExecT(t, db, `DROP TABLE b; CREATE TABLE b (w INT, k INT);
INSERT INTO b VALUES (201, 1), (202, 2)`)
		res, err := tx.Query(join)
		if err == nil {
			t.Fatalf("transaction read the replaced table: %d rows", len(res.Rows))
		}
		if !strings.Contains(err.Error(), `"b"`) {
			t.Errorf("error does not name the table: %v", err)
		}
	})

	t.Run("held across CREATE INDEX", func(t *testing.T) {
		db := replaceDB(t)
		var rows []datum.Row
		for k := int64(1); k <= 2000; k++ {
			rows = append(rows, datum.Row{datum.Int(k), datum.Int(1000 + k)})
		}
		if err := db.InsertRows("b", rows); err != nil {
			t.Fatal(err)
		}
		db.Analyze()
		want := freshAnswer(t, db, join)
		p, err := db.Prepare(join, EMST)
		if err != nil {
			t.Fatal(err)
		}
		tx := db.Begin()
		defer tx.Rollback()
		// Committed after the transaction began: invisible to it, seen by
		// the held Prepared.
		mustExecT(t, db, `INSERT INTO b VALUES (3, 7); CREATE INDEX b_k ON b (k)`)
		res, err := tx.Query(join)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(res.Plan.Physical(), "b:index") {
			t.Fatalf("the plan made after CREATE INDEX does not probe it:\n%s", res.Plan.Physical())
		}
		if got := sortedAnswer(t, res); got != want {
			t.Errorf("transaction answered %s, its snapshot holds %s", got, want)
		}
		held, err := p.Execute()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sortedAnswer(t, held), freshAnswer(t, db, join); got != want {
			t.Errorf("held plan answered %s, a fresh prepare %s", got, want)
		}
	})

	t.Run("SELECT * gains a column", func(t *testing.T) {
		db := replaceDB(t)
		p, err := db.Prepare(`SELECT * FROM b`, EMST)
		if err != nil {
			t.Fatal(err)
		}
		mustExecT(t, db, `DROP TABLE b; CREATE TABLE b (k INT, w INT, x INT); INSERT INTO b VALUES (1, 2, 3)`)
		if res, err := p.Execute(); err == nil {
			t.Fatalf("held SELECT * ran with columns %v over a table of three: %d rows", p.Columns(), len(res.Rows))
		}
	})
}

// TestHeldPlanConcurrentDDL: eight goroutines execute one held Prepared
// while another runs ANALYZE and CREATE INDEX; every answer is the serial
// one. Run it under -race.
func TestHeldPlanConcurrentDDL(t *testing.T) {
	db := New()
	mustExecT(t, db, `CREATE TABLE emp (id INT, dept INT, sal INT, PRIMARY KEY (id));
CREATE TABLE dept (dept INT, name VARCHAR, PRIMARY KEY (dept))`)
	var emps, depts []datum.Row
	for id := int64(1); id <= 2000; id++ {
		emps = append(emps, datum.Row{datum.Int(id), datum.Int(id % 40), datum.Int(id * 10)})
	}
	for d := int64(0); d < 40; d++ {
		depts = append(depts, datum.Row{datum.Int(d), datum.String(fmt.Sprintf("d%02d", d))})
	}
	if err := db.InsertRows("emp", emps); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("dept", depts); err != nil {
		t.Fatal(err)
	}
	const q = `SELECT d.name, e.id FROM dept d, emp e WHERE d.dept = e.dept AND e.sal > ? AND d.name < ?`
	p, err := db.Prepare(q, EMST)
	if err != nil {
		t.Fatal(err)
	}
	args := [][]any{{int64(19000), "d05"}, {int64(100), "d01"}, {int64(0), "d40"}, {int64(15000), "d20"}}
	want := make([]string, len(args))
	for i, a := range args {
		res, err := p.Execute(a...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sortedAnswer(t, res)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 9) // each goroutine sends at most one
	var ddl sync.WaitGroup
	ddl.Add(1)
	go func() {
		defer ddl.Done()
		for i := 0; ctx.Err() == nil; i++ {
			db.Analyze()
			stmt := []string{`CREATE INDEX e_dept ON emp (dept)`, `CREATE INDEX e_sal ON emp (sal)`, `CREATE INDEX d_name ON dept (name)`}[i%3]
			if _, err := db.Exec(stmt); err != nil {
				errs <- err
				return
			}
		}
	}()
	var workers sync.WaitGroup
	for w := 0; w < 8; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			for i := 0; i < 12; i++ {
				k := (w + i) % len(args)
				res, err := p.Execute(args[k]...)
				if err != nil {
					errs <- err
					return
				}
				if got := sortedAnswer(t, res); got != want[k] {
					errs <- fmt.Errorf("binding %v answered %d rows, serially %d", args[k], len(res.Rows), strings.Count(want[k], ";")+1)
					return
				}
			}
		}(w)
	}
	workers.Wait()
	cancel()
	ddl.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
