// Command magicsql is an interactive SQL shell (and script runner) for the
// starmagic engine. SELECT statements run under the EMST pipeline by
// default; dot-commands switch strategies and show optimizer output:
//
//	.strategy emst|original|correlated    pick the execution strategy
//	.explain SELECT ...                   show the rewrite phases and costs
//	.plan on|off                          print the executed physical
//	                                      operator tree with row/batch/time
//	                                      counters after each SELECT
//	.timing on|off                        print elapsed times
//	.metrics [reset]                      show (or zero) session metrics
//	.cache on|off|stats                   toggle or inspect the plan cache
//	.mem [limit [total]|off]              cap per-query (and total) memory;
//	                                      capped operators spill to disk
//	.admission [N [queue]|off]            cap concurrent query executions
//	.stats <table>                        per-column statistics and
//	                                      equi-depth histograms
//	.checkpoint                           checkpoint a durable database now
//	.tables                               list tables and views
//	.help                                 this text
//
// Sizes accept optional kb/mb/gb suffixes: .mem 64kb, .mem 4mb 64mb.
//
// Usage:
//
//	magicsql [script.sql ...]        run scripts, then read from stdin
//	magicsql -data ./mydb            open (or create) a durable database
//	echo "SELECT 1" | magicsql       pipe statements
//
// With -data, the database lives in the named directory: committed writes
// are write-ahead logged and the shell recovers the full state on the next
// start. Without it, everything is in memory and gone at exit.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"starmagic/internal/engine"
	"starmagic/internal/obs"
)

func main() {
	dataDir := flag.String("data", "", "data directory for a durable database (empty = in-memory)")
	flag.Parse()
	var db *engine.Database
	if *dataDir != "" {
		var err error
		db, err = engine.OpenDir(*dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "magicsql:", err)
			os.Exit(1)
		}
		if d, n := db.RecoveryStats(); n > 0 {
			fmt.Fprintf(os.Stderr, "magicsql: recovered %s (%d log records in %v)\n", *dataDir, n, d)
		}
	} else {
		db = engine.New()
	}
	defer func() {
		if err := db.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "magicsql: close:", err)
		}
	}()
	sh := &shell{db: db, strategy: engine.EMST, out: os.Stdout}
	for _, path := range flag.Args() {
		script, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "magicsql:", err)
			os.Exit(1)
		}
		if err := sh.runScript(string(script)); err != nil {
			fmt.Fprintln(os.Stderr, "magicsql:", err)
			os.Exit(1)
		}
	}
	stat, _ := os.Stdin.Stat()
	interactive := (stat.Mode() & os.ModeCharDevice) != 0
	if interactive {
		fmt.Println("starmagic SQL shell — .help for commands, statements end with ;")
	}
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if interactive {
			if buf.Len() == 0 {
				fmt.Print("magic> ")
			} else {
				fmt.Print("   ... ")
			}
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, ".") {
			sh.dotCommand(trimmed)
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			if err := sh.runScript(buf.String()); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
			buf.Reset()
		}
		prompt()
	}
	if buf.Len() > 0 {
		if err := sh.runScript(buf.String()); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}
}

type shell struct {
	db       *engine.Database
	strategy engine.Strategy
	// txn is the open explicit transaction (BEGIN .. COMMIT/ROLLBACK);
	// nil in autocommit mode.
	txn      *engine.Txn
	timing   bool
	showPlan bool
	// .mem / .admission settings, kept so the commands can echo them back.
	memLimit   int64
	memTotal   int64
	admitMax   int
	admitQueue int
	out        io.Writer
}

// parseSize parses a byte count with an optional kb/mb/gb suffix.
func parseSize(s string) (int64, error) {
	mult := int64(1)
	lower := strings.ToLower(s)
	for suffix, m := range map[string]int64{"kb": 1 << 10, "mb": 1 << 20, "gb": 1 << 30} {
		if strings.HasSuffix(lower, suffix) {
			mult = m
			lower = strings.TrimSuffix(lower, suffix)
			break
		}
	}
	n, err := strconv.ParseInt(lower, 10, 64)
	if err != nil {
		return 0, err
	}
	return n * mult, nil
}

// runScript executes statements; SELECTs print result tables.
func (sh *shell) runScript(script string) error {
	// Split crude statement boundaries while respecting strings is already
	// handled by the parser; feed whole chunks and dispatch on first token.
	for _, stmt := range splitStatements(script) {
		trimmed := strings.TrimSpace(stmt)
		if trimmed == "" {
			continue
		}
		first := strings.ToUpper(firstWord(trimmed))
		switch first {
		case "BEGIN", "START":
			if sh.txn != nil {
				t := sh.txn
				sh.txn = nil
				if err := t.Commit(); err != nil {
					return err
				}
			}
			sh.txn = sh.db.Begin()
			continue
		case "COMMIT", "ROLLBACK":
			t := sh.txn
			sh.txn = nil
			if t == nil {
				continue // no-op in autocommit mode, like MySQL
			}
			if first == "COMMIT" {
				if err := t.Commit(); err != nil {
					return err
				}
			} else if err := t.Rollback(); err != nil {
				return err
			}
			continue
		}
		if first == "SELECT" || strings.HasPrefix(trimmed, "(") {
			var res *engine.Result
			var err error
			if sh.txn != nil {
				res, err = sh.txn.QueryContext(context.Background(), trimmed,
					engine.WithStrategy(sh.strategy))
			} else {
				res, err = sh.db.QueryContext(context.Background(), trimmed,
					engine.WithStrategy(sh.strategy))
			}
			if err != nil {
				return err
			}
			sh.printResult(res)
			continue
		}
		if sh.txn != nil {
			_, err := sh.txn.ExecContext(context.Background(), trimmed)
			if sh.txn.Done() {
				sh.txn = nil // write conflict rolled the transaction back
			}
			if err != nil {
				return err
			}
			continue
		}
		if _, err := sh.db.Exec(trimmed); err != nil {
			return err
		}
	}
	return nil
}

func (sh *shell) dotCommand(line string) {
	fields := strings.Fields(line)
	switch fields[0] {
	case ".help":
		fmt.Fprintln(sh.out, ".strategy emst|original|correlated — pick execution strategy")
		fmt.Fprintln(sh.out, ".explain SELECT ...                — show rewrite phases and costs")
		fmt.Fprintln(sh.out, ".plan on|off                       — print executed operator tree")
		fmt.Fprintln(sh.out, ".timing on|off                     — print elapsed times")
		fmt.Fprintln(sh.out, ".metrics [reset]                   — show (or zero) session metrics")
		fmt.Fprintln(sh.out, ".cache on|off|stats                — toggle or inspect the plan cache")
		fmt.Fprintln(sh.out, ".mem [limit [total]|off]           — cap per-query (and total) memory; spill beyond it")
		fmt.Fprintln(sh.out, ".admission [N [queue]|off]         — cap concurrent query executions")
		fmt.Fprintln(sh.out, ".stats <table> [column]            — per-column statistics and histograms")
		fmt.Fprintln(sh.out, ".checkpoint                        — checkpoint a durable database now")
		fmt.Fprintln(sh.out, ".tables                            — list tables and views")
	case ".strategy":
		if len(fields) < 2 {
			fmt.Fprintf(sh.out, "strategy: %s\n", sh.strategy)
			return
		}
		s, err := engine.ParseStrategy(fields[1])
		if err != nil {
			fmt.Fprintln(sh.out, err)
			return
		}
		sh.strategy = s
		fmt.Fprintf(sh.out, "strategy: %s\n", s)
	case ".timing":
		sh.timing = len(fields) > 1 && fields[1] == "on"
		fmt.Fprintf(sh.out, "timing: %v\n", sh.timing)
	case ".plan":
		sh.showPlan = len(fields) > 1 && fields[1] == "on"
		fmt.Fprintf(sh.out, "plan: %v\n", sh.showPlan)
	case ".checkpoint":
		if !sh.db.Durable() {
			fmt.Fprintln(sh.out, "in-memory database (start with -data <dir> for durability)")
			return
		}
		start := time.Now()
		if err := sh.db.Checkpoint(); err != nil {
			fmt.Fprintln(sh.out, "checkpoint failed:", err)
			return
		}
		m := sh.db.Metrics()
		fmt.Fprintf(sh.out, "checkpoint: %d bytes in %v\n", m.WAL.CheckpointBytes, time.Since(start))
	case ".tables":
		for _, t := range sh.db.Catalog().Tables() {
			fmt.Fprintf(sh.out, "table %s (%d rows)\n", t.Name, t.RowCount)
		}
		for _, v := range sh.db.Catalog().Views() {
			fmt.Fprintf(sh.out, "view  %s\n", v.Name)
		}
	case ".metrics":
		if len(fields) > 1 && fields[1] == "reset" {
			sh.db.ResetMetrics()
			fmt.Fprintln(sh.out, "metrics reset")
			return
		}
		sh.printMetrics(sh.db.Metrics())
	case ".cache":
		if len(fields) > 1 {
			switch fields[1] {
			case "on":
				sh.db.SetPlanCache(true)
			case "off":
				sh.db.SetPlanCache(false)
			case "stats":
				// fall through to the printout below
			default:
				fmt.Fprintln(sh.out, "usage: .cache on|off|stats")
				return
			}
		}
		st := sh.db.PlanCacheStats()
		state := "off"
		if st.Enabled {
			state = "on"
		}
		fmt.Fprintf(sh.out, "plan cache: %s  entries: %d  hits: %d  misses: %d  shared: %d  evictions: %d\n",
			state, st.Entries, st.Hits, st.Misses, st.Shared, st.Evictions)
	case ".mem":
		if len(fields) > 1 {
			if fields[1] == "off" {
				sh.memLimit, sh.memTotal = 0, 0
			} else {
				limit, err := parseSize(fields[1])
				if err != nil {
					fmt.Fprintln(sh.out, "usage: .mem [limit [total]|off] — sizes like 65536, 64kb, 4mb")
					return
				}
				var total int64
				if len(fields) > 2 {
					if total, err = parseSize(fields[2]); err != nil {
						fmt.Fprintln(sh.out, "usage: .mem [limit [total]|off] — sizes like 65536, 64kb, 4mb")
						return
					}
				}
				sh.memLimit, sh.memTotal = limit, total
			}
			sh.db.SetMemoryLimit(sh.memLimit, sh.memTotal)
		}
		st := sh.db.ResourceStats()
		if sh.memLimit == 0 && sh.memTotal == 0 {
			fmt.Fprint(sh.out, "memory: unlimited")
		} else {
			fmt.Fprintf(sh.out, "memory: per-query=%d total=%d", sh.memLimit, sh.memTotal)
		}
		fmt.Fprintf(sh.out, "  in-use=%d  spills=%d  spilled-bytes=%d\n",
			st.UsedBytes, st.Spills, st.SpilledBytes)
	case ".admission":
		if len(fields) > 1 {
			if fields[1] == "off" {
				sh.admitMax, sh.admitQueue = 0, 0
			} else {
				n, err := parseSize(fields[1])
				if err != nil || n < 0 {
					fmt.Fprintln(sh.out, "usage: .admission [N [queue]|off]")
					return
				}
				var q int64
				if len(fields) > 2 {
					if q, err = parseSize(fields[2]); err != nil || q < 0 {
						fmt.Fprintln(sh.out, "usage: .admission [N [queue]|off]")
						return
					}
				}
				sh.admitMax, sh.admitQueue = int(n), int(q)
			}
			sh.db.SetAdmission(sh.admitMax, sh.admitQueue)
		}
		st := sh.db.ResourceStats()
		if sh.admitMax <= 0 {
			fmt.Fprint(sh.out, "admission: off")
		} else {
			fmt.Fprintf(sh.out, "admission: max-concurrent=%d max-queue=%d", sh.admitMax, sh.admitQueue)
		}
		fmt.Fprintf(sh.out, "  running=%d waiting=%d admitted=%d waited=%d rejected=%d\n",
			st.Running, st.Waiting, st.Admitted, st.Waited, st.Rejected)
	case ".stats":
		if len(fields) < 2 {
			fmt.Fprintln(sh.out, "usage: .stats <table>")
			return
		}
		t, ok := sh.db.Catalog().Table(fields[1])
		if !ok {
			fmt.Fprintf(sh.out, "no such table %s\n", fields[1])
			return
		}
		if len(fields) > 2 {
			// .stats <table> <column>: dump the full histogram.
			ord := t.ColumnIndex(fields[2])
			if ord < 0 {
				fmt.Fprintf(sh.out, "no such column %s.%s\n", t.Name, fields[2])
				return
			}
			if ord >= len(t.Stats) || t.Stats[ord].Hist == nil {
				fmt.Fprintln(sh.out, "(no histogram)")
				return
			}
			fmt.Fprint(sh.out, t.Stats[ord].Hist.Dump())
			return
		}
		fmt.Fprintf(sh.out, "table %s: %d rows\n", t.Name, t.RowCount)
		for i, c := range t.Columns {
			if i >= len(t.Stats) {
				fmt.Fprintf(sh.out, "  %s %s: not analyzed\n", c.Name, c.Type)
				continue
			}
			st := t.Stats[i]
			fmt.Fprintf(sh.out, "  %s %s: ndv=%d nulls=%d", c.Name, c.Type, st.DistinctCount, st.NullCount)
			if st.DistinctCount > 0 {
				fmt.Fprintf(sh.out, " min=%s max=%s", st.Min.Format(), st.Max.Format())
			}
			fmt.Fprintln(sh.out)
			if st.Hist != nil {
				fmt.Fprintf(sh.out, "    histogram: %s\n", st.Hist)
			}
		}
	case ".explain":
		query := strings.TrimSpace(strings.TrimPrefix(line, ".explain"))
		info, err := sh.db.ExplainContext(context.Background(), query,
			engine.WithStrategy(sh.strategy))
		if err != nil {
			fmt.Fprintln(sh.out, "error:", err)
			return
		}
		fmt.Fprint(sh.out, info.String())
	default:
		fmt.Fprintf(sh.out, "unknown command %s (.help for help)\n", fields[0])
	}
}

// printMetrics renders the session-wide metrics snapshot.
func (sh *shell) printMetrics(m obs.Metrics) {
	fmt.Fprintf(sh.out, "plans: %d  queries: %d  errors: %d\n", m.Plans, m.Queries, m.Errors)
	if len(m.ByStrategy) > 0 {
		keys := make([]string, 0, len(m.ByStrategy))
		for k := range m.ByStrategy {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(sh.out, "by strategy:")
		for _, k := range keys {
			fmt.Fprintf(sh.out, " %s=%d", k, m.ByStrategy[k])
		}
		fmt.Fprintln(sh.out)
	}
	fmt.Fprintf(sh.out, "emst chosen: %d  pre-emst chosen: %d  cost saved: %.1f\n",
		m.EMSTChosen, m.PreEMSTChosen, m.CostDelta)
	fmt.Fprintf(sh.out, "optimize: %v  execute: %v\n",
		time.Duration(m.OptimizeNanos), time.Duration(m.ExecNanos))
	fmt.Fprintf(sh.out, "exec: base-rows=%d box-evals=%d hash-builds=%d hash-probes=%d index-lookups=%d output-rows=%d\n",
		m.Exec.BaseRows, m.Exec.BoxEvals, m.Exec.HashBuilds, m.Exec.HashProbes,
		m.Exec.IndexLookups, m.Exec.OutputRows)
	fmt.Fprintf(sh.out, "intern: strings=%d bytes=%d hits=%d misses=%d\n",
		m.Intern.Strings, m.Intern.Bytes, m.Intern.Hits, m.Intern.Misses)
	if len(m.OpRows) > 0 {
		keys := make([]string, 0, len(m.OpRows))
		for k := range m.OpRows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(sh.out, "operators:")
		for _, k := range keys {
			fmt.Fprintf(sh.out, " %s=%d", k, m.OpRows[k])
		}
		fmt.Fprintln(sh.out)
	}
	if len(m.RuleFires) > 0 {
		keys := make([]string, 0, len(m.RuleFires))
		for k := range m.RuleFires {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprint(sh.out, "rule fires:")
		for _, k := range keys {
			fmt.Fprintf(sh.out, " %s=%d", k, m.RuleFires[k])
		}
		fmt.Fprintln(sh.out)
	}
}

func (sh *shell) printResult(res *engine.Result) {
	widths := make([]int, len(res.Columns))
	cells := make([][]string, 0, len(res.Rows)+1)
	header := make([]string, len(res.Columns))
	for i, c := range res.Columns {
		header[i] = c
		widths[i] = len(c)
	}
	cells = append(cells, header)
	for _, row := range res.Rows {
		line := make([]string, len(row))
		for i, d := range row {
			line[i] = d.Format()
			if len(line[i]) > widths[i] {
				widths[i] = len(line[i])
			}
		}
		cells = append(cells, line)
	}
	for ri, line := range cells {
		var sb strings.Builder
		for i, cell := range line {
			if i > 0 {
				sb.WriteString(" | ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < widths[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(sh.out, sb.String())
		if ri == 0 {
			fmt.Fprintln(sh.out, strings.Repeat("-", len(sb.String())))
		}
	}
	fmt.Fprintf(sh.out, "(%d rows)\n", len(res.Rows))
	if sh.showPlan {
		fmt.Fprint(sh.out, res.Plan.Physical())
	}
	if sh.timing {
		fmt.Fprintf(sh.out, "optimize %v, execute %v (strategy %s, emst-plan=%v)\n",
			res.Plan.OptimizeTime, res.Plan.ExecTime, res.Plan.Strategy, res.Plan.UsedEMST)
		if res.Plan.Mem.LimitBytes > 0 || res.Plan.Mem.Spills > 0 {
			fmt.Fprintf(sh.out, "memory: peak=%d limit=%d spills=%d spilled-bytes=%d\n",
				res.Plan.Mem.PeakBytes, res.Plan.Mem.LimitBytes,
				res.Plan.Mem.Spills, res.Plan.Mem.SpilledBytes)
		}
	}
}

// splitStatements splits on top-level semicolons, respecting string
// literals.
func splitStatements(script string) []string {
	var out []string
	var sb strings.Builder
	inStr := false
	for i := 0; i < len(script); i++ {
		c := script[i]
		switch {
		case c == '\'':
			inStr = !inStr
			sb.WriteByte(c)
		case c == ';' && !inStr:
			out = append(out, sb.String())
			sb.Reset()
		default:
			sb.WriteByte(c)
		}
	}
	out = append(out, sb.String())
	return out
}

func firstWord(s string) string {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return ""
	}
	return fields[0]
}
