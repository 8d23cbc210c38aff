package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"starmagic/internal/datum"
)

func txnTestDB(t *testing.T) *Database {
	t.Helper()
	db := New()
	if _, err := db.Exec(`
	CREATE TABLE account (id INT, owner VARCHAR, balance INT, PRIMARY KEY (id));
	INSERT INTO account VALUES (1, 'alice', 100), (2, 'bob', 200), (3, 'carol', 300);`); err != nil {
		t.Fatal(err)
	}
	return db
}

func balances(t *testing.T, q interface {
	Query(string, ...QueryOption) (*Result, error)
}) map[int64]int64 {
	t.Helper()
	res, err := q.Query(`SELECT a.id, a.balance FROM account a`)
	if err != nil {
		t.Fatal(err)
	}
	out := map[int64]int64{}
	for _, row := range res.Rows {
		out[row[0].I] = row[1].I
	}
	return out
}

// dbQuerier adapts Database.Query (no options parameter mismatch) for the
// balances helper.
type dbQuerier struct{ db *Database }

func (d dbQuerier) Query(q string, opts ...QueryOption) (*Result, error) {
	return d.db.QueryContext(context.Background(), q, opts...)
}

func TestTxnCommitVisibility(t *testing.T) {
	db := txnTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`INSERT INTO account VALUES (4, 'dave', 400)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE account SET balance = 150 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// Read-your-writes inside the transaction.
	in := balances(t, tx)
	if in[4] != 400 || in[1] != 150 {
		t.Fatalf("inside txn: %v", in)
	}
	// Invisible outside until commit.
	out := balances(t, dbQuerier{db})
	if _, ok := out[4]; ok || out[1] != 100 {
		t.Fatalf("uncommitted writes leaked: %v", out)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	out = balances(t, dbQuerier{db})
	if out[4] != 400 || out[1] != 150 {
		t.Fatalf("after commit: %v", out)
	}
	// A finished transaction rejects further work.
	if _, err := tx.Exec(`INSERT INTO account VALUES (9, 'x', 0)`); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("exec after commit: %v", err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("double commit: %v", err)
	}
}

func TestTxnRollback(t *testing.T) {
	db := txnTestDB(t)
	tx := db.Begin()
	if _, err := tx.Exec(`DELETE FROM account WHERE id = 2`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO account VALUES (5, 'eve', 500)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	out := balances(t, dbQuerier{db})
	if len(out) != 3 || out[2] != 200 {
		t.Fatalf("rollback leaked writes: %v", out)
	}
	// The claimed row is free again for other transactions.
	if _, err := db.Exec(`DELETE FROM account WHERE id = 2`); err != nil {
		t.Fatalf("delete after rollback: %v", err)
	}
}

func TestTxnWriteConflict(t *testing.T) {
	db := txnTestDB(t)
	t1 := db.Begin()
	t2 := db.Begin()
	if _, err := t1.Exec(`UPDATE account SET balance = 110 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	// First updater wins: t2 fails immediately and is rolled back.
	_, err := t2.Exec(`UPDATE account SET balance = 120 WHERE id = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second updater: %v, want ErrWriteConflict", err)
	}
	if !t2.Done() {
		t.Fatal("losing transaction not rolled back")
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	out := balances(t, dbQuerier{db})
	if out[1] != 110 {
		t.Fatalf("winner's write lost: %v", out)
	}
	m := db.Metrics()
	if m.TxnConflicts == 0 || m.TxnRollbacks == 0 {
		t.Fatalf("conflict metrics not recorded: %+v", m)
	}
}

func TestTxnSnapshotIgnoresLaterCommits(t *testing.T) {
	db := txnTestDB(t)
	tx := db.Begin()
	if _, err := db.Exec(`INSERT INTO account VALUES (4, 'dave', 400)`); err != nil {
		t.Fatal(err)
	}
	in := balances(t, tx)
	if _, ok := in[4]; ok {
		t.Fatalf("snapshot saw later commit: %v", in)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestCursorOpenDuringDML is the lock-free streaming regression: with a
// cursor open and partially drained, committed DML must proceed without
// blocking, and the cursor must keep returning its snapshot.
func TestCursorOpenDuringDML(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE big (id INT, v VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	var stmts []byte
	for i := 0; i < 5000; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO big VALUES (%d, 'v-%d');", i, i)...)
	}
	if _, err := db.Exec(string(stmts)); err != nil {
		t.Fatal(err)
	}

	rows, err := db.QueryRows(context.Background(), `SELECT b.id FROM big b`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	// Drain a prefix so the cursor is mid-stream.
	for i := 0; i < 100; i++ {
		if !rows.Next() {
			t.Fatalf("cursor ended early: %v", rows.Err())
		}
	}

	// DML must commit while the cursor is open — bounded wait proves no
	// blocking (the old implementation held the read lock until Close).
	done := make(chan error, 1)
	go func() {
		if _, err := db.Exec(`INSERT INTO big VALUES (990001, 'late')`); err != nil {
			done <- err
			return
		}
		_, err := db.Exec(`DELETE FROM big WHERE id < 100`)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("DML blocked behind an open cursor")
	}

	// The cursor still streams its snapshot: all 5000 original rows, no
	// 'late' row, including the 100 just deleted.
	n := 100
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5000 {
		t.Fatalf("cursor streamed %d rows, want 5000", n)
	}

	// A fresh query sees the new state.
	res, err := db.Query(`SELECT COUNT(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].I; got != 5000-100+1 {
		t.Fatalf("post-DML count = %d, want %d", got, 5000-100+1)
	}
}

// TestVacuumPreservesOpenSnapshot: a transaction's snapshot pins deleted
// versions (and their interned strings) against vacuum + compaction.
func TestVacuumPreservesOpenSnapshot(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE words (id INT, w VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	var stmts []byte
	const n = 2000
	for i := 0; i < n; i++ {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO words VALUES (%d, 'word-%06d');", i, i)...)
	}
	if _, err := db.Exec(string(stmts)); err != nil {
		t.Fatal(err)
	}

	tx := db.Begin()
	defer func() { _ = tx.Rollback() }()

	if _, err := db.Exec(`DELETE FROM words WHERE id >= 0`); err != nil {
		t.Fatal(err)
	}
	// The open snapshot holds the horizon back: vacuum may compact the
	// intern table only of strings no live snapshot can reach — here, none.
	db.Vacuum()

	res, err := tx.Query(`SELECT w.id, w.w FROM words w WHERE w.id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].S != "word-000007" {
		t.Fatalf("snapshot read after vacuum: %v", res.Rows)
	}
	res, err = tx.Query(`SELECT COUNT(*) FROM words`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != n {
		t.Fatalf("snapshot count = %d, want %d", res.Rows[0][0].I, n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Snapshot released: now vacuum reclaims and a fresh read sees nothing.
	if got := db.Vacuum(); got == 0 {
		t.Fatal("vacuum reclaimed nothing after snapshot release")
	}
	res, err = db.Query(`SELECT COUNT(*) FROM words`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].I != 0 {
		t.Fatalf("post-vacuum count = %d, want 0", res.Rows[0][0].I)
	}
	m := db.Metrics()
	if m.VacuumRuns == 0 || m.VacuumReclaimed == 0 {
		t.Fatalf("vacuum metrics not recorded: %+v", m)
	}
}

// TestSnapshotReaderWriterOracle is the embedded-path consistency oracle:
// writers append (writer, seq) rows in per-writer sequence order while
// readers repeatedly scan; every scan must observe, for each writer, a
// clean prefix of its inserts (count == max seq + 1). Run under -race via
// make race.
func TestSnapshotReaderWriterOracle(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE log (w INT, s INT)`); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, readers = 4, 150, 3
	ctx := context.Background()

	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := 0; s < perWriter; s++ {
				if _, err := db.Exec(fmt.Sprintf(`INSERT INTO log VALUES (%d, %d)`, w, s)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := db.QueryContext(ctx, `SELECT l.w, COUNT(*), MAX(l.s) FROM log l GROUP BY l.w`)
				if err != nil {
					errCh <- err
					return
				}
				for _, row := range res.Rows {
					if row[1].I != row[2].I+1 {
						errCh <- fmt.Errorf("writer %d: count %d != max+1 %d (torn snapshot)",
							row[0].I, row[1].I, row[2].I+1)
						return
					}
				}
			}
		}()
	}

	writersDone := make(chan struct{})
	go func() {
		// Writers finish first; then release the readers.
		for {
			res, err := db.Query(`SELECT COUNT(*) FROM log`)
			if err == nil && res.Rows[0][0].I == writers*perWriter {
				close(writersDone)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(5 * time.Millisecond):
			}
		}
	}()
	select {
	case <-writersDone:
	case err := <-errCh:
		close(stop)
		wg.Wait()
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		close(stop)
		wg.Wait()
		t.Fatal("oracle timed out")
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
}

// TestTxnMixedConcurrent stresses explicit transactions from many
// goroutines: transfers between two accounts with retries on conflict; the
// invariant (total balance) must hold in every snapshot and at the end.
func TestTxnMixedConcurrent(t *testing.T) {
	db := txnTestDB(t)
	const goroutines, transfers = 6, 30
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < transfers; i++ {
				for {
					tx := db.Begin()
					_, err := tx.Exec(`UPDATE account SET balance = balance - 1 WHERE id = 1`)
					if err == nil {
						_, err = tx.Exec(`UPDATE account SET balance = balance + 1 WHERE id = 2`)
					}
					if err == nil {
						err = tx.Commit()
					}
					if err == nil {
						break
					}
					_ = tx.Rollback()
					if !errors.Is(err, ErrWriteConflict) {
						errCh <- err
						return
					}
				}
			}
		}(g)
	}
	// Concurrent readers assert the conservation invariant on live snapshots.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := db.Query(`SELECT SUM(a.balance) FROM account a`)
			if err != nil {
				errCh <- err
				return
			}
			if res.Rows[0][0].I != 600 {
				errCh <- fmt.Errorf("balance sum %d, want 600", res.Rows[0][0].I)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	out := balances(t, dbQuerier{db})
	total := goroutines * transfers
	if out[1] != int64(100-total) || out[2] != int64(200+total) {
		t.Fatalf("final balances: %v", out)
	}
}

// TestInsertSelectSelfInsertion pins INSERT INTO t SELECT * FROM t: the
// source query's plan is drained before the first row is appended, so the
// statement doubles t exactly once — under autocommit, and inside a
// transaction that has already inserted into t itself. The table spans
// several executor batches, so a plan that interleaved reading with
// appending would see its own output.
func TestInsertSelectSelfInsertion(t *testing.T) {
	const n = 1500
	db := New()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b VARCHAR)`); err != nil {
		t.Fatal(err)
	}
	rows := make([]datum.Row, 0, n)
	for i := 0; i < n; i++ {
		b := datum.String(fmt.Sprintf("r%d", i))
		if i%7 == 0 {
			b = datum.Null()
		}
		rows = append(rows, datum.Row{datum.Int(int64(i)), b})
	}
	if err := db.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// counts returns each row's multiplicity in t as q sees it.
	counts := func(q interface {
		Query(string, ...QueryOption) (*Result, error)
	}) map[string]int {
		t.Helper()
		res, err := q.Query(`SELECT a, b FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]int{}
		for _, row := range res.Rows {
			out[row.Key()]++
		}
		return out
	}
	want := func(rows []datum.Row, times int) map[string]int {
		out := map[string]int{}
		for _, row := range rows {
			out[row.Key()] += times
		}
		return out
	}
	check := func(what string, got, want map[string]int) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct rows; want %d", what, len(got), len(want))
		}
		for k, w := range want {
			if got[k] != w {
				t.Fatalf("%s: row %q appears %d times; want %d", what, k, got[k], w)
			}
		}
	}

	got, err := db.Exec(`INSERT INTO t SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got != n {
		t.Fatalf("autocommit INSERT … SELECT inserted %d rows; want %d", got, n)
	}
	check("after autocommit", counts(dbQuerier{db}), want(rows, 2))

	tx := db.Begin()
	own := datum.Row{datum.Int(n), datum.String("own")}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1500, 'own')`); err != nil {
		t.Fatal(err)
	}
	got, err = tx.Exec(`INSERT INTO t SELECT * FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*n+1 {
		t.Fatalf("in-transaction INSERT … SELECT inserted %d rows; want %d", got, 2*n+1)
	}
	all := append(rows[:n:n], own)
	wantOwn := want(all, 4)
	wantOwn[own.Key()] = 2
	check("inside the transaction", counts(tx), wantOwn)
	check("outside before commit", counts(dbQuerier{db}), want(rows, 2))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check("after commit", counts(dbQuerier{db}), wantOwn)
}
