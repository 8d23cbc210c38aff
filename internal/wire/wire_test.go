package wire

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"starmagic"
)

// startPipe wires a client to a server over net.Pipe: the server side runs
// in a goroutine, and cleanup waits for it so -race sees the full exchange.
func startPipe(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	clientSide, serverSide := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.ServeConn(serverSide)
	}()
	t.Cleanup(func() {
		_ = clientSide.Close()
		<-done
	})
	return clientSide
}

func testDB(t *testing.T) *starmagic.DB {
	t.Helper()
	db := starmagic.Open()
	db.MustExec(`
	CREATE TABLE dept (deptno INT, deptname VARCHAR, PRIMARY KEY (deptno));
	CREATE TABLE emp (empno INT, deptno INT, salary FLOAT, active BOOLEAN, PRIMARY KEY (empno));
	INSERT INTO dept VALUES (10, 'Planning'), (20, 'Shipping'), (30, NULL);
	INSERT INTO emp VALUES (1, 10, 52750.5, TRUE), (2, 10, 41250.0, FALSE), (3, 20, 38000.25, TRUE), (4, NULL, NULL, NULL);`)
	return db
}

func connect(t *testing.T, srv *Server, user, password string) *Client {
	t.Helper()
	c, err := NewClient(startPipe(t, srv), user, password)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return c
}

func TestHandshakeAndPing(t *testing.T) {
	srv := NewServer(testDB(t), Config{User: "root", Password: "secret"})
	c := connect(t, srv, "root", "secret")
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := c.Quit(); err != nil {
		t.Fatal(err)
	}
}

func TestAuthFailure(t *testing.T) {
	srv := NewServer(testDB(t), Config{User: "root", Password: "secret"})
	attempt := func(user, password string) error {
		clientSide, serverSide := net.Pipe()
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.ServeConn(serverSide)
		}()
		_, err := NewClient(clientSide, user, password)
		_ = clientSide.Close()
		<-done // server goroutine has recorded the connection
		return err
	}
	err := attempt("root", "wrong")
	ce, ok := err.(*ClientError)
	if !ok || ce.Code != errAccessDenied || ce.SQLState != "28000" {
		t.Fatalf("bad password: %v", err)
	}
	if ce, ok := attempt("intruder", "secret").(*ClientError); !ok || ce.Code != errAccessDenied {
		t.Fatalf("bad user: %v", err)
	}
	// Failed handshakes show up in the metrics.
	if m := srv.Metrics(); m.ConnectionsFailed != 2 {
		t.Fatalf("ConnectionsFailed = %d, want 2", m.ConnectionsFailed)
	}
}

func TestComQueryResultSet(t *testing.T) {
	srv := NewServer(testDB(t), Config{})
	c := connect(t, srv, "anyone", "")
	rs, err := c.Query(`SELECT d.deptno, d.deptname FROM dept d ORDER BY d.deptno`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 2 || rs.Columns[0] != "deptno" || rs.Columns[1] != "deptname" {
		t.Fatalf("columns = %v", rs.Columns)
	}
	want := [][]Cell{
		{{true, "10"}, {true, "Planning"}},
		{{true, "20"}, {true, "Shipping"}},
		{{true, "30"}, {false, ""}},
	}
	if len(rs.Rows) != len(want) {
		t.Fatalf("rows = %v", rs.Rows)
	}
	for i := range want {
		for j := range want[i] {
			if rs.Rows[i][j] != want[i][j] {
				t.Fatalf("row %d col %d = %+v, want %+v", i, j, rs.Rows[i][j], want[i][j])
			}
		}
	}
}

func TestComQueryExecAndSessionChatter(t *testing.T) {
	srv := NewServer(testDB(t), Config{})
	c := connect(t, srv, "u", "")
	for _, q := range []string{
		"SET NAMES utf8mb4", "USE anything", "BEGIN", "COMMIT",
	} {
		if _, err := c.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	n, err := c.Exec(`INSERT INTO dept VALUES (40, 'Research')`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("affected = %d, want 1", n)
	}
	rs, err := c.Query(`select @@version_comment limit 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Value != "starmagic" {
		t.Fatalf("@@version_comment = %v", rs.Rows)
	}
}

// TestStmtExecuteAllBindTypes round-trips a binary COM_STMT_EXECUTE with
// every client-side bind type the codec supports, NULL included.
func TestStmtExecuteAllBindTypes(t *testing.T) {
	db := starmagic.Open()
	db.MustExec(`CREATE TABLE vals (i INT, f FLOAT, s VARCHAR, b BOOLEAN)`)
	db.MustExec(`INSERT INTO vals VALUES (7, 2.5, 'seven', TRUE), (8, 3.5, 'eight', FALSE)`)
	srv := NewServer(db, Config{})
	c := connect(t, srv, "u", "")

	cases := []struct {
		arg  any
		want string // expected i column of matching row, "" for no rows
	}{
		{int64(7), "7"},
		{int32(7), "7"},
		{int(7), "7"},
		{float64(7), "7"},
		{float32(7), "7"},
		{nil, ""}, // i = NULL matches nothing
	}
	st, err := c.Prepare(`SELECT v.i FROM vals v WHERE v.i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams != 1 {
		t.Fatalf("NumParams = %d", st.NumParams)
	}
	for _, tc := range cases {
		rs, err := c.Execute(st, tc.arg)
		if err != nil {
			t.Fatalf("execute %T(%v): %v", tc.arg, tc.arg, err)
		}
		if tc.want == "" {
			if len(rs.Rows) != 0 {
				t.Fatalf("bind %T(%v): rows = %v, want none", tc.arg, tc.arg, rs.Rows)
			}
			continue
		}
		if len(rs.Rows) != 1 || rs.Rows[0][0].Value != tc.want {
			t.Fatalf("bind %T(%v): rows = %v", tc.arg, tc.arg, rs.Rows)
		}
	}

	stS, err := c.Prepare(`SELECT v.i FROM vals v WHERE v.s = ?`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := c.Execute(stS, "eight")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Value != "8" {
		t.Fatalf("string bind: %v", rs.Rows)
	}
	if rs, err = c.Execute(stS, []byte("seven")); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("blob bind: %v %v", rs, err)
	}
	// MySQL has no boolean wire type: clients bind bools as TINYINT 1/0,
	// which decode server-side as integers. BOOLEAN results render as 1/0.
	db.MustExec(`INSERT INTO vals VALUES (1, 0.0, 'one', TRUE)`)
	stB, err := c.Prepare(`SELECT v.b FROM vals v WHERE v.i = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err = c.Execute(stB, true); err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Value != "1" {
		t.Fatalf("bool bind: %v %v", rs, err)
	}
	stF, err := c.Prepare(`SELECT v.i FROM vals v WHERE v.f = ?`)
	if err != nil {
		t.Fatal(err)
	}
	if rs, err = c.Execute(stF, 3.5); err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Value != "8" {
		t.Fatalf("float bind: %v %v", rs, err)
	}
	if err := c.StmtClose(st); err != nil {
		t.Fatal(err)
	}
	// A closed statement id answers ER_UNKNOWN_STMT_HANDLER.
	if _, err := c.Execute(st, int64(1)); err == nil {
		t.Fatal("execute after close succeeded")
	} else if ce, ok := err.(*ClientError); !ok || ce.Code != errUnknownStmt {
		t.Fatalf("execute after close: %v", err)
	}
}

// TestStmtExecuteHitsPlanCache is the acceptance criterion that
// COM_STMT_EXECUTE rides the engine's sharded plan cache: re-preparing the
// same SQL on a second connection must be a cache hit, not a fresh
// optimization.
func TestStmtExecuteHitsPlanCache(t *testing.T) {
	db := testDB(t)
	srv := NewServer(db, Config{})
	const q = `SELECT e.empno FROM emp e WHERE e.deptno = ?`

	c1 := connect(t, srv, "u", "")
	st1, err := c1.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Execute(st1, int64(10)); err != nil {
		t.Fatal(err)
	}
	before := db.PlanCacheStats()

	c2 := connect(t, srv, "u", "")
	st2, err := c2.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Execute(st2, int64(20)); err != nil {
		t.Fatal(err)
	}
	after := db.PlanCacheStats()
	if after.Hits <= before.Hits {
		t.Fatalf("second COM_STMT_PREPARE missed the plan cache: hits %d -> %d (misses %d -> %d)",
			before.Hits, after.Hits, before.Misses, after.Misses)
	}
	if after.Misses != before.Misses {
		t.Fatalf("second COM_STMT_PREPARE re-optimized: misses %d -> %d", before.Misses, after.Misses)
	}
}

// TestErrorPackets checks the errno/SQLSTATE mapping of the typed error
// surface, end to end through ERR packets.
func TestErrorPackets(t *testing.T) {
	srv := NewServer(testDB(t), Config{})
	c := connect(t, srv, "u", "")
	cases := []struct {
		query    string
		code     uint16
		sqlState string
	}{
		{`SELECT FROM WHERE`, errParse, "42000"},
		{`SELECT t.x FROM missing t`, errNoSuchTable, "42S02"},
		{`SELECT d.nope FROM dept d`, errBadField, "42S22"},
		{`SELECT d.deptno FROM dept d WHERE d.deptno = ?`, errParamCount, "HY000"},
	}
	for _, tc := range cases {
		_, err := c.Query(tc.query)
		ce, ok := err.(*ClientError)
		if !ok {
			t.Fatalf("%s: err = %v (%T)", tc.query, err, err)
		}
		if ce.Code != tc.code || ce.SQLState != tc.sqlState {
			t.Fatalf("%s: got %d/%s, want %d/%s (%s)",
				tc.query, ce.Code, ce.SQLState, tc.code, tc.sqlState, ce.Message)
		}
	}
	// The connection survives every error and keeps serving.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after errors: %v", err)
	}
}

// TestWireVsEmbeddedOracle runs the same queries through the wire text
// protocol, the wire binary protocol, and the embedded streaming cursor, and
// requires identical content from all three.
func TestWireVsEmbeddedOracle(t *testing.T) {
	db := testDB(t)
	srv := NewServer(db, Config{})
	c := connect(t, srv, "u", "")
	queries := []string{
		`SELECT d.deptno, d.deptname FROM dept d ORDER BY d.deptno`,
		`SELECT e.deptno, COUNT(*), AVG(e.salary) FROM emp e GROUP BY e.deptno ORDER BY e.deptno`,
		`SELECT e.empno, d.deptname FROM emp e, dept d WHERE e.deptno = d.deptno ORDER BY e.empno`,
		`SELECT e.active, e.salary FROM emp e ORDER BY e.empno`,
	}
	for _, q := range queries {
		rows, err := db.QueryRows(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]Cell
		for rows.Next() {
			row := rows.Row()
			cells := make([]Cell, len(row))
			for i, d := range row {
				if d.IsNull() {
					continue
				}
				cells[i] = Cell{Valid: true, Value: string(wireText(nil, d))}
			}
			want = append(want, cells)
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		_ = rows.Close()

		check := func(proto string, rs *Resultset) {
			if len(rs.Rows) != len(want) {
				t.Fatalf("%s %s: %d rows, want %d", proto, q, len(rs.Rows), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if rs.Rows[i][j] != want[i][j] {
						t.Fatalf("%s %s: row %d col %d = %+v, want %+v",
							proto, q, i, j, rs.Rows[i][j], want[i][j])
					}
				}
			}
		}
		rs, err := c.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		check("text", rs)
		st, err := c.Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		brs, err := c.Execute(st)
		if err != nil {
			t.Fatal(err)
		}
		check("binary", brs)
	}
}

// TestConcurrentConnections hammers one server from many connections; run
// under -race it checks the server, the cursor path, and the metrics sink
// share no unsynchronized state.
func TestConcurrentConnections(t *testing.T) {
	db := testDB(t)
	db.SetAdmission(4, 64)
	srv := NewServer(db, Config{})
	const conns = 8
	var wg, srvWg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		clientSide, serverSide := net.Pipe()
		wg.Add(1)
		srvWg.Add(1)
		go func(nc net.Conn) {
			defer srvWg.Done()
			srv.ServeConn(nc)
		}(serverSide)
		go func(nc net.Conn, n int) {
			defer wg.Done()
			defer func() { _ = nc.Close() }()
			c, err := NewClient(nc, "u", "")
			if err != nil {
				errs <- err
				return
			}
			for k := 0; k < 20; k++ {
				rs, err := c.Query(`SELECT e.empno FROM emp e ORDER BY e.empno`)
				if err != nil {
					errs <- fmt.Errorf("conn %d query %d: %w", n, k, err)
					return
				}
				if len(rs.Rows) != 4 {
					errs <- fmt.Errorf("conn %d query %d: %d rows", n, k, len(rs.Rows))
					return
				}
				st, err := c.Prepare(`SELECT e.salary FROM emp e WHERE e.empno = ?`)
				if err != nil {
					errs <- err
					return
				}
				if _, err := c.Execute(st, int64(k%4+1)); err != nil {
					errs <- err
					return
				}
				if err := c.StmtClose(st); err != nil {
					errs <- err
					return
				}
			}
			_ = c.Quit()
		}(clientSide, i)
	}
	wg.Wait()
	srvWg.Wait() // samples fold into server metrics at connection close
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.ConnectionsOpened != conns || m.Queries != conns*20 || m.StmtExecs != conns*20 {
		t.Fatalf("metrics: %+v", m)
	}
}

// TestLargeResultStreams pushes a result set far larger than any buffer in
// the path and checks row count and packet integrity; long VARCHAR values
// also exercise multi-packet framing boundaries.
func TestLargeResultStreams(t *testing.T) {
	db := starmagic.Open()
	db.MustExec(`CREATE TABLE big (id INT, pad VARCHAR)`)
	var rows []starmagic.Row
	pad := strings.Repeat("x", 300)
	for i := 0; i < 20_000; i++ {
		rows = append(rows, starmagic.Row{starmagic.Int(int64(i)), starmagic.String(pad)})
	}
	if err := db.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db, Config{})
	c := connect(t, srv, "u", "")
	rs, err := c.Query(`SELECT b.id, b.pad FROM big b`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 20_000 {
		t.Fatalf("streamed %d rows", len(rs.Rows))
	}
	for i, r := range rs.Rows {
		if r[1].Value != pad {
			t.Fatalf("row %d corrupted", i)
		}
	}
}

// TestStmtAcrossTableReplace: a statement prepared on one connection whose
// table another connection drops and re-creates with its columns swapped
// answers its next execute with the rows a fresh prepare answers; one whose
// SELECT * would now return another column list answers ERR.
func TestStmtAcrossTableReplace(t *testing.T) {
	srv := NewServer(testDB(t), Config{})
	c1 := connect(t, srv, "u", "")
	c2 := connect(t, srv, "u", "")
	const q = `SELECT e.empno, d.deptname FROM emp e, dept d WHERE e.deptno = d.deptno AND e.empno > ?`
	st, err := c1.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	star, err := c1.Prepare(`SELECT * FROM dept`)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`DROP TABLE dept`,
		`CREATE TABLE dept (deptname VARCHAR, deptno INT, budget INT, PRIMARY KEY (deptno))`,
		`INSERT INTO dept VALUES ('Research', 10, 1), ('Sales', 20, 2)`,
	} {
		if _, err := c2.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	got, err := c1.Execute(st, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := c2.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c2.Execute(fresh, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || len(got.Rows) != 3 {
		t.Errorf("held statement answered %v, a fresh prepare %v", got.Rows, want.Rows)
	}
	if rs, err := c1.Execute(star); err == nil {
		t.Errorf("held SELECT * answered %v under its old column list", rs.Rows)
	}
}
