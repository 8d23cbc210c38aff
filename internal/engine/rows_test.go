package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"starmagic/internal/datum"
	"starmagic/internal/semant"
)

// rowsTestDB builds a database with one large table for streaming tests.
func rowsTestDB(t testing.TB, rows int) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`CREATE TABLE big (id INT, grp INT, name VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	batch := make([]datum.Row, rows)
	for i := range batch {
		batch[i] = datum.Row{
			datum.Int(int64(i)),
			datum.Int(int64(i % 97)),
			datum.String(fmt.Sprintf("name-%05d", i%1000)),
		}
	}
	if err := db.InsertRows("big", batch); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestRowsDrainMatchesQuery checks the cursor yields exactly the rows the
// materializing API returns, in order, and that PlanInfo is deferred until
// the drain completes.
func TestRowsDrainMatchesQuery(t *testing.T) {
	db := rowsTestDB(t, 1000)
	const q = `SELECT t.id, t.name FROM big t WHERE t.grp = 3 ORDER BY t.id`
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	r, err := db.QueryRows(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := r.Columns(); len(got) != 2 || got[0] != "id" || got[1] != "name" {
		t.Fatalf("columns = %v", got)
	}
	if r.Plan() != nil {
		t.Fatal("Plan() non-nil before drain")
	}
	var got []datum.Row
	for r.Next() {
		got = append(got, r.Row())
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.Plan() == nil {
		t.Fatal("Plan() nil after drain")
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("got %d rows, want %d", len(got), len(want.Rows))
	}
	for i := range got {
		if datum.CompareRows(got[i], want.Rows[i]) != 0 {
			t.Fatalf("row %d: got %#v want %#v", i, got[i], want.Rows[i])
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRowsEarlyCloseStopsScan reads a handful of rows from a 100k-row scan
// and closes: the executor must have pulled only a few batches, not the
// table — the streaming guarantee the wire server's packet-by-packet
// delivery relies on.
func TestRowsEarlyCloseStopsScan(t *testing.T) {
	const total = 100_000
	db := rowsTestDB(t, total)
	r, err := db.QueryRows(context.Background(), `SELECT t.id FROM big t WHERE t.id >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5 && r.Next(); i++ {
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	info := r.Plan()
	if info == nil {
		t.Fatal("Plan() nil after Close")
	}
	if info.Counters.BaseRows >= total/10 {
		t.Fatalf("early close scanned %d of %d base rows; streaming should have stopped after a few batches",
			info.Counters.BaseRows, total)
	}
	// The read lock must be released: DDL would deadlock otherwise.
	if _, err := db.Exec(`CREATE TABLE after_close (x INT)`); err != nil {
		t.Fatal(err)
	}
}

// TestRowsLargeScanUnderBudget streams a grouped scan of a large table under
// a 64 KiB budget: the run must finish, stay under the budget at peak, and
// match the unbudgeted reference evaluator — the acceptance criterion
// that QueryRows streams instead of materializing.
func TestRowsLargeScanUnderBudget(t *testing.T) {
	const budget = 64 << 10
	db := rowsTestDB(t, 50_000)
	const q = `SELECT DISTINCT t.name FROM big t`
	want := referenceRows(t, db, nil, q)
	r, err := db.QueryRows(context.Background(), q, WithMemoryLimit(budget))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	n := 0
	for r.Next() {
		n++
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(want) {
		t.Fatalf("streamed %d rows, want %d", n, len(want))
	}
	info := r.Plan()
	if info.Mem.PeakBytes > budget {
		t.Fatalf("peak %d bytes exceeds %d budget", info.Mem.PeakBytes, budget)
	}
}

// TestRowsScan exercises every Scan target type, NULL handling included.
func TestRowsScan(t *testing.T) {
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE v (i INT, f FLOAT, s VARCHAR, b BOOLEAN);
	INSERT INTO v VALUES (7, 2.5, 'x', TRUE);
	INSERT INTO v VALUES (NULL, NULL, NULL, NULL);`); err != nil {
		t.Fatal(err)
	}
	// No ORDER BY: a bare scan preserves insertion order (NULLs would sort
	// first), so the value row streams before the all-NULL row.
	r, err := db.QueryRows(context.Background(), `SELECT t.i, t.f, t.s, t.b FROM v t`)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Next() {
		t.Fatal("no first row")
	}
	var i int64
	var f float64
	var s string
	var b bool
	if err := r.Scan(&i, &f, &s, &b); err != nil {
		t.Fatal(err)
	}
	if i != 7 || f != 2.5 || s != "x" || !b {
		t.Fatalf("scanned (%d, %g, %q, %v)", i, f, s, b)
	}
	if !r.Next() {
		t.Fatal("no second row")
	}
	if err := r.Scan(&i, &f, &s, &b); err == nil {
		t.Fatal("scanning NULL into non-nullable targets should fail")
	}
	var anyI, anyF, anyS, anyB any
	if err := r.Scan(&anyI, &anyF, &anyS, &anyB); err != nil {
		t.Fatal(err)
	}
	if anyI != nil || anyF != nil || anyS != nil || anyB != nil {
		t.Fatalf("NULLs scanned into any as (%v, %v, %v, %v)", anyI, anyF, anyS, anyB)
	}
	var ds [4]datum.D
	if err := r.Scan(&ds[0], &ds[1], &ds[2], &ds[3]); err != nil {
		t.Fatal(err)
	}
	for k, d := range ds {
		if !d.IsNull() {
			t.Fatalf("datum target %d not NULL: %#v", k, d)
		}
	}
}

// TestTypedErrors checks the typed error surface the wire server maps onto
// MySQL error codes.
func TestTypedErrors(t *testing.T) {
	db := rowsTestDB(t, 10)
	ctx := context.Background()

	var nf *semant.NotFoundError
	_, err := db.QueryRows(ctx, `SELECT t.id FROM missing t`)
	if !errors.As(err, &nf) || nf.Kind != "table" || nf.Name != "missing" {
		t.Fatalf("missing table: %v (%T)", err, err)
	}
	_, err = db.QueryRows(ctx, `SELECT t.nope FROM big t`)
	if !errors.As(err, &nf) || nf.Kind != "column" {
		t.Fatalf("missing column: %v (%T)", err, err)
	}

	var pc *ParamCountError
	_, err = db.QueryRows(ctx, `SELECT t.id FROM big t WHERE t.id = ?`)
	if !errors.As(err, &pc) || pc.Want != 1 || pc.Got != 0 {
		t.Fatalf("param count: %v (%T)", err, err)
	}
	p, err := db.PrepareContext(ctx, `SELECT t.id FROM big t WHERE t.id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.ExecuteRows(ctx, 1, 2)
	if !errors.As(err, &pc) || pc.Want != 1 || pc.Got != 2 {
		t.Fatalf("execute param count: %v (%T)", err, err)
	}
}
