package main

// The modes a person runs: every workload in one command, the two-set
// agreement check the bounds in BENCHMARK.json come from, and regenerating
// the frozen answers.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"

	"starmagic"
)

func printMetrics(defs []metricDef, rep *report) {
	for _, m := range defs {
		if v := rep.Metrics[m.name].Value; v != 0 {
			fmt.Printf("  %-32s %14.4f %s\n", m.name, v, m.unit)
		}
	}
}

// suite runs both passes of every workload and prints every metric by name
// with its unit (per-layer metrics that do not apply to a workload are 0 and
// left out).
func suite(env *environment, seed int64, seconds float64) error {
	fmt.Println(machineLine())
	bad := 0
	for _, w := range workloads {
		fmt.Printf("\n%s — %s\n  seed %d, op list hash %016x, closed loop, %d client(s)\n",
			w.name, w.why, seed, opListHash(w, seed, 1000), w.clients())
		for _, trace := range []bool{false, true} {
			rep, err := runOne(env, w, seed, seconds, trace)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			defs, pass := endToEnd, "timed"
			if trace {
				defs, pass = perLayer, "traced"
			}
			fmt.Printf("  %s pass: attempted %d, failed %d, failed_share %.4f\n", pass, rep.Attempted, rep.Failed,
				ratio(float64(rep.Failed), float64(rep.Attempted)))
			printMetrics(defs, rep)
			if !rep.Correct {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d pass(es) had failed operations", bad)
	}
	return nil
}

// agreeRuns runs every gated workload's timed pass twice, back to back, and
// fails if an end-to-end metric differs between the two sets by more than its
// bound in BENCHMARK.json.
func agreeRuns(env *environment, seed int64, seconds float64) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Println(machineLine())
	gated := gatedWorkloads()
	var sets [2]map[string]*report
	for i := range sets {
		sets[i] = map[string]*report{}
		for _, w := range gated {
			rep, err := runOne(env, w, seed, seconds, false)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, rep.Failed, rep.Attempted)
			}
			sets[i][w.name] = rep
		}
	}
	fmt.Printf("%-18s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "differ", "bound")
	apart := 0
	for _, w := range gated {
		for _, m := range spec.EndToEnd {
			a, b := sets[0][w.name].Metrics[m.Name].Value, sets[1][w.name].Metrics[m.Name].Value
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if diff > m.Bound {
				verdict = "  APART"
				apart++
			}
			fmt.Printf("%-18s %-18s %14.4f %14.4f %7.1f%% %5.0f%%%s\n", w.name, m.Name, a, b, 100*diff, 100*m.Bound, verdict)
		}
	}
	if apart > 0 {
		return fmt.Errorf("%d metric(s) differ between the two sets by more than their bound", apart)
	}
	return nil
}

// freezeDigests answers every binding of every frozen shape under the
// Original strategy, checks that Correlated and EMST return the same rows,
// and writes the digests.
func freezeDigests(path string) error {
	ds := generate()
	db := starmagic.Open()
	if err := ds.load(db.Engine()); err != nil {
		return err
	}
	ctx := context.Background()
	strategies := []starmagic.Strategy{starmagic.StrategyOriginal, starmagic.StrategyCorrelated, starmagic.StrategyEMST}
	var lines []string
	for _, id := range frozenShapes {
		sh := shapes[id]
		var prepared []*starmagic.Prepared
		for _, s := range strategies {
			p, err := db.PrepareContext(ctx, sh.sql, starmagic.WithStrategy(s))
			if err != nil {
				return err
			}
			prepared = append(prepared, p)
		}
		// Enumerate the binding domain by drawing from it: the largest
		// domain has 441 keys, so 50 000 draws miss none.
		rng := rand.New(rand.NewSource(1))
		seen := map[string]bool{}
		for i := 0; i < 50000; i++ {
			args, key := sh.bind(rng, i)
			if seen[key] {
				continue
			}
			seen[key] = true
			var want uint64
			for j, p := range prepared {
				res, err := p.ExecuteContext(ctx, args...)
				if err != nil {
					return fmt.Errorf("%s under %v: %w", key, strategies[j], err)
				}
				got := digest(textRows(res.Rows))
				if j == 0 {
					want = got
				} else if got != want {
					return fmt.Errorf("%s: %v returns different rows than Original", key, strategies[j])
				}
			}
			lines = append(lines, fmt.Sprintf("%s %016x", key, want))
		}
	}
	sort.Strings(lines)
	header := "# Frozen answer digests: <shape>|<bindings> <fnv64a of the sorted rows>.\n" +
		"# Generated under Original, cross-checked against Correlated and EMST.\n" +
		"# Regenerate with: bash benchmark/run.sh --freeze\n"
	return os.WriteFile(path, []byte(header+strings.Join(lines, "\n")+"\n"), 0o644)
}
