// Command table1 regenerates the paper's Table 1: elapsed times of eight
// decision-support experiments under the Original, Correlated and EMST
// strategies, normalized to Original = 100.
//
// Usage:
//
//	table1 [-scale N] [-reps N] [-mem BYTES] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"starmagic/internal/bench"
	"starmagic/internal/engine"
)

func main() {
	scale := flag.Int("scale", 1, "data size multiplier")
	reps := flag.Int("reps", 3, "executions per measurement (fastest wins)")
	verbose := flag.Bool("v", false, "print raw timings, counters, and regimes")
	metrics := flag.Bool("metrics", false, "print the database-wide metrics snapshot after the runs")
	ablation := flag.Bool("ablation", false, "also run the design-choice ablation study on experiments G and H")
	sweep := flag.Bool("sweep", false, "also sweep outer width on the experiment-C query (crossover curve)")
	mem := flag.Int64("mem", 0, "per-query memory budget in bytes (0 = unlimited); capped operators spill to disk")
	flag.Parse()

	cfg := bench.DefaultConfig().WithScale(*scale)
	fmt.Printf("loading benchmark data (scale %d: %d departments, %d employees, %d sales, %d orders)...\n",
		*scale, cfg.Departments, cfg.Departments*cfg.EmpsPerDept,
		cfg.Departments*cfg.SalesPerDept, cfg.Departments*cfg.OrdersPerDept)
	db, err := bench.NewDB(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setup:", err)
		os.Exit(1)
	}
	if *mem > 0 {
		db.SetMemoryLimit(*mem, 0)
		fmt.Printf("per-query memory budget: %d bytes (operators spill beyond it)\n", *mem)
	}

	rows, err := bench.Table1(db, *reps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	fmt.Println()
	fmt.Println("Table 1: Elapsed Time (Original = 100)")
	fmt.Print(bench.FormatTable(rows))
	if *mem > 0 {
		m := db.Metrics()
		fmt.Printf("\nmemory governance: peak=%d bytes  spills=%d  spilled-bytes=%d (budget %d)\n",
			m.MemPeakBytes, m.Spills, m.BytesSpilled, *mem)
	}

	if *ablation {
		fmt.Println()
		fmt.Println("Ablation study (full EMST = 100 per experiment; plan always executed)")
		arows, err := bench.RunAblations(db, []string{"B", "G", "H", "S"}, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatAblations(arows))
	}

	if *sweep {
		fmt.Println()
		fmt.Println("Outer-width sweep over the unindexed fact view (Original = 100 per row)")
		pts, err := bench.Sweep(db, []int{1, 2, 5, 10, 20, 40, 80, 120, 150}, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(1)
		}
		fmt.Print(bench.FormatSweep(pts))
	}

	if *verbose {
		fmt.Println()
		for _, r := range rows {
			fmt.Printf("Exp %s — %s\n  regime: %s\n", r.Experiment.ID, r.Experiment.Name, r.Experiment.Regime)
			for _, s := range []engine.Strategy{engine.Original, engine.Correlated, engine.EMST} {
				m := r.Raw[s]
				fmt.Printf("  %-10s %12v rows=%-6d base-rows=%-8d probes=%-8d fires=%d vec=%d/%d\n",
					s, m.Elapsed, m.Rows, m.Counters.BaseRows, m.Counters.HashProbes, m.Fires, m.Vec[0], m.Vec[1])
			}
		}
	}

	if *metrics {
		m := db.Metrics()
		fmt.Println()
		fmt.Println("Database metrics across all runs:")
		fmt.Printf("  plans: %d  queries: %d  errors: %d\n", m.Plans, m.Queries, m.Errors)
		keys := make([]string, 0, len(m.ByStrategy))
		for k := range m.ByStrategy {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  queries[%s] = %d\n", k, m.ByStrategy[k])
		}
		fmt.Printf("  emst chosen: %d  pre-emst chosen: %d  estimated cost saved: %.1f\n",
			m.EMSTChosen, m.PreEMSTChosen, m.CostDelta)
		fmt.Printf("  optimize: %v  execute: %v\n",
			time.Duration(m.OptimizeNanos), time.Duration(m.ExecNanos))
		fmt.Printf("  exec: base-rows=%d hash-builds=%d hash-probes=%d index-lookups=%d output-rows=%d\n",
			m.Exec.BaseRows, m.Exec.HashBuilds, m.Exec.HashProbes,
			m.Exec.IndexLookups, m.Exec.OutputRows)
		rules := make([]string, 0, len(m.RuleFires))
		for k := range m.RuleFires {
			rules = append(rules, k)
		}
		sort.Strings(rules)
		for _, k := range rules {
			fmt.Printf("  fires[%s] = %d\n", k, m.RuleFires[k])
		}
	}
}
