package main

// The wire workloads' system under test: a child magicserver on loopback
// TCP, durable (-data, -durability commit: fsync before every commit
// acknowledgement, batched across committers), loaded from a generated -init
// script, and driven through internal/wire's client.

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"starmagic/internal/wire"
)

const flushPolicy = "SyncCommit (magicserver -durability commit)"

// server is one running magicserver child and its data directory.
type server struct {
	env  *environment
	cmd  *exec.Cmd
	addr string
	dir  string
	// exited closes when the child has been reaped.
	exited chan struct{}
}

// setupWire generates the data, writes the init script, starts a server on a
// fresh data directory and waits until it answers a ping.
func setupWire(env *environment) (*dataset, *server, error) {
	ds := generate()
	dir, err := os.MkdirTemp(env.tmp, "data-")
	if err != nil {
		return nil, nil, err
	}
	initFile := filepath.Join(dir, "init.sql")
	if err := os.WriteFile(initFile, []byte(ds.initScript()), 0o644); err != nil {
		return nil, nil, err
	}
	srv := &server{env: env, dir: dir}
	if _, err := srv.start("-init", initFile); err != nil {
		return nil, nil, err
	}
	return ds, srv, nil
}

// start launches the server on a free loopback port and returns the time
// from exec to the first successful COM_PING.
func (s *server) start(extra ...string) (time.Duration, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	s.addr = l.Addr().String()
	l.Close()
	logf, err := os.OpenFile(filepath.Join(s.dir, "server.log"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	args := append([]string{"-addr", s.addr, "-data", filepath.Join(s.dir, "db"), "-durability", "commit"}, extra...)
	s.cmd = exec.Command(s.env.serverBin, args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return 0, fmt.Errorf("start %s: %w", s.env.serverBin, err)
	}
	s.env.track(s)
	exited := make(chan struct{})
	s.exited = exited
	go func(cmd *exec.Cmd) { cmd.Wait(); close(exited) }(s.cmd)
	for time.Since(t0) < 60*time.Second {
		select {
		case <-exited:
			log, _ := os.ReadFile(filepath.Join(s.dir, "server.log"))
			return 0, fmt.Errorf("magicserver exited during start-up:\n%s", log)
		default:
		}
		if c, err := s.dial(); err == nil {
			err = c.Ping()
			c.Quit()
			if err == nil {
				return time.Since(t0), nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	s.stop()
	return 0, fmt.Errorf("magicserver did not answer within 60 s")
}

func (s *server) dial() (*wire.Client, error) {
	c, _, err := s.dialConn()
	return c, err
}

func (s *server) dialConn() (*wire.Client, net.Conn, error) {
	nc, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, nil, err
	}
	c, err := wire.NewClient(nc, "bench", "")
	if err != nil {
		nc.Close()
		return nil, nil, err
	}
	return c, nc, nil
}

// kill SIGKILLs the server and reaps it, leaving the data directory.
func (s *server) kill() {
	if s.cmd != nil {
		s.cmd.Process.Signal(syscall.SIGKILL)
		<-s.exited
	}
}

// stop kills the server and removes its directory.
func (s *server) stop() {
	s.kill()
	os.RemoveAll(s.dir)
	s.env.untrack(s)
}

// replyGrace is how long past the end of a pass a connection still waits for
// a reply. A server that stops answering then costs each connection one
// failed operation, not the run its end.
const replyGrace = 20 * time.Second

// wireClient is one connection with the workload's reads prepared on it.
type wireClient struct {
	c     *wire.Client
	nc    net.Conn
	stmts map[string]*wire.Stmt
}

// giveUpAt sets the time after which a wait for the server fails.
func (wc *wireClient) giveUpAt(t time.Time) { wc.nc.SetDeadline(t) }

func (s *server) connect(w *workload) (*wireClient, error) {
	c, nc, err := s.dialConn()
	if err != nil {
		return nil, err
	}
	wc := &wireClient{c: c, nc: nc, stmts: map[string]*wire.Stmt{}}
	for _, id := range w.readShapes() {
		st, err := c.Prepare(shapes[id].sql)
		if err != nil {
			return nil, fmt.Errorf("COM_STMT_PREPARE %s: %w", id, err)
		}
		wc.stmts[id] = st
	}
	return wc, nil
}

func (wc *wireClient) do(o *op) ([][]string, error) {
	switch o.kind {
	case opInsert:
		_, err := wc.c.Exec(o.text)
		return nil, err
	case opUpdate:
		if _, err := wc.c.Exec("BEGIN"); err != nil {
			return nil, err
		}
		if n, err := wc.c.Exec(o.text); err != nil || n != 1 {
			wc.c.Exec("ROLLBACK")
			return nil, fmt.Errorf("UPDATE touched %d rows: %v", n, err)
		}
		_, err := wc.c.Exec("COMMIT")
		return nil, err
	}
	rs, err := wc.c.Execute(wc.stmts[o.shape.id], o.args...)
	if err != nil {
		return nil, err
	}
	return cellRows(rs), nil
}

// readBack checks over a fresh connection that every acknowledged INSERT and
// the last acknowledged UPDATE per employee are readable.
func (s *server) readBack(ds *dataset, stats []*clientStats, when string) tally {
	var t tally
	fail := func(format string, args ...any) {
		t.fail(fmt.Errorf(when+": "+format, args...))
	}
	t.attempted++
	c, err := s.dial()
	if err != nil {
		fail("%v", err)
		return t
	}
	defer c.Quit()
	rs, err := c.Query("SELECT saleid, deptno, amount, yr FROM sales WHERE saleid > 1000000")
	if err != nil {
		fail("read sales back: %v", err)
		return t
	}
	got := map[string][]string{}
	for _, r := range cellRows(rs) {
		got[r[0]] = r
	}
	for _, st := range stats {
		for _, want := range st.sales {
			t.attempted++
			r, ok := got[want[0]]
			if !ok || r[1] != want[1] || r[2] != want[2] || r[3] != want[3] {
				fail("acknowledged sale %v reads back as %v", want, r)
			}
		}
	}
	rs, err = c.Query("SELECT empno, salary FROM employee")
	if err != nil {
		fail("read employee back: %v", err)
		return t
	}
	rows := cellRows(rs)
	if len(rows) != len(ds.emp) {
		fail("%d employees, want %d", len(rows), len(ds.emp))
	}
	for _, r := range rows {
		t.attempted++
		empno, _ := strconv.ParseInt(r[0], 10, 64)
		want := ds.emp[empno][empSalaryCol].F
		for _, st := range stats {
			if v, ok := st.salaries[empno]; ok {
				want = v
			}
		}
		if got, _ := strconv.ParseFloat(r[1], 64); got != want {
			fail("employee %d has salary %v, last acknowledged %v", empno, got, want)
		}
	}
	return t
}

// crashCheck reads the acknowledged writes back, SIGKILLs the server,
// restarts it on the same directory and reads them back again. It returns
// the restart time (exec to first COM_PING). afterKill, when not nil, sees
// the data directory as the kill left it. Killing the process keeps the
// operating system's cache, so this proves commits survive a process crash,
// not a power loss.
func (s *server) crashCheck(ds *dataset, stats []*clientStats, afterKill func(dataDir string)) (tally, time.Duration) {
	t := s.readBack(ds, stats, "after the run")
	s.kill()
	if afterKill != nil {
		afterKill(filepath.Join(s.dir, "db"))
	}
	recovery, err := s.start()
	t.attempted++
	if err != nil {
		t.fail(fmt.Errorf("restart after SIGKILL: %w", err))
		return t, 0
	}
	t.add(s.readBack(ds, stats, "after SIGKILL and restart"))
	return t, recovery
}
