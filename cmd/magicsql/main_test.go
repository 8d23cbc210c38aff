package main

import (
	"bytes"
	"strings"
	"testing"

	"starmagic/internal/engine"
)

func newShell() (*shell, *bytes.Buffer) {
	var buf bytes.Buffer
	return &shell{db: engine.New(), strategy: engine.EMST, out: &buf}, &buf
}

func TestSplitStatements(t *testing.T) {
	got := splitStatements("SELECT 1; SELECT 'a;b'; INSERT INTO t VALUES ('x')")
	if len(got) != 3 {
		t.Fatalf("split into %d: %q", len(got), got)
	}
	if !strings.Contains(got[1], "a;b") {
		t.Errorf("semicolon inside string split: %q", got[1])
	}
}

func TestShellRunScriptAndPrint(t *testing.T) {
	sh, buf := newShell()
	script := `
	CREATE TABLE t (a INT, b VARCHAR(5), PRIMARY KEY (a));
	INSERT INTO t VALUES (1, 'x'), (2, 'y');
	SELECT a, b FROM t WHERE a = 2;`
	if err := sh.runScript(script); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"a | b", "2 | y", "(1 rows)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellDotCommands(t *testing.T) {
	sh, buf := newShell()
	if err := sh.runScript("CREATE TABLE t (a INT, PRIMARY KEY (a)); CREATE VIEW v AS SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	sh.dotCommand(".tables")
	sh.dotCommand(".strategy correlated")
	sh.dotCommand(".strategy")
	sh.dotCommand(".timing on")
	sh.dotCommand(".help")
	sh.dotCommand(".explain SELECT a FROM v WHERE a = 1")
	sh.dotCommand(".bogus")
	out := buf.String()
	for _, want := range []string{"table t", "view  v", "strategy: correlated", "timing: true", "-- initial --", "unknown command"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if sh.strategy != engine.Correlated {
		t.Error("strategy not switched")
	}
}

func TestShellTimingOutput(t *testing.T) {
	sh, buf := newShell()
	sh.timing = true
	if err := sh.runScript("CREATE TABLE t (a INT, PRIMARY KEY (a)); INSERT INTO t VALUES (1); SELECT a FROM t"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "optimize") {
		t.Errorf("timing line missing:\n%s", buf.String())
	}
}

func TestParseSize(t *testing.T) {
	cases := map[string]int64{"65536": 65536, "64kb": 64 << 10, "4MB": 4 << 20, "1gb": 1 << 30}
	for in, want := range cases {
		got, err := parseSize(in)
		if err != nil || got != want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "kb", "4x", "1.5mb"} {
		if _, err := parseSize(bad); err == nil {
			t.Errorf("parseSize(%q) succeeded", bad)
		}
	}
}

func TestShellMemAndAdmissionCommands(t *testing.T) {
	sh, buf := newShell()
	sh.timing = true
	sh.dotCommand(".mem 2kb")
	sh.dotCommand(".admission 2 4")
	script := `
	CREATE TABLE t (a INT, b VARCHAR, PRIMARY KEY (a));
	INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, 'z');
	SELECT DISTINCT b FROM t ORDER BY b;`
	if err := sh.runScript(script); err != nil {
		t.Fatal(err)
	}
	sh.dotCommand(".mem")
	sh.dotCommand(".admission")
	sh.dotCommand(".mem off")
	sh.dotCommand(".admission off")
	sh.dotCommand(".mem bogus")
	out := buf.String()
	for _, want := range []string{
		"memory: per-query=2048 total=0",
		"admission: max-concurrent=2 max-queue=4",
		"admitted=",
		"memory: peak=", // the timing line reports the budgeted run
		"memory: unlimited",
		"admission: off",
		"usage: .mem",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellStatsCommand(t *testing.T) {
	sh, buf := newShell()
	script := `
	CREATE TABLE t (a INT, b VARCHAR, PRIMARY KEY (a));
	INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'x'), (4, NULL);`
	if err := sh.runScript(script); err != nil {
		t.Fatal(err)
	}
	sh.db.Analyze()
	sh.dotCommand(".stats t")
	sh.dotCommand(".stats t a")
	sh.dotCommand(".stats t nope")
	sh.dotCommand(".stats missing")
	sh.dotCommand(".stats")
	out := buf.String()
	for _, want := range []string{
		"table t: 4 rows",
		"a INT: ndv=4 nulls=0 min=1 max=4",
		"b VARCHAR: ndv=2 nulls=1",
		"histogram:", // per-column histogram summary line
		"bucket  0",  // full dump for .stats t a
		"no such column t.nope",
		"no such table missing",
		"usage: .stats <table>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestShellErrorPropagates(t *testing.T) {
	sh, _ := newShell()
	if err := sh.runScript("SELECT * FROM missing"); err == nil {
		t.Error("missing table did not error")
	}
}
