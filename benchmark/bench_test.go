package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var testEnv *environment

// TestMain builds the magicserver the wire workloads drive.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "starmagic-benchmark-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin := filepath.Join(dir, "magicserver")
	if out, err := exec.Command("go", "build", "-o", bin, "starmagic/cmd/magicserver").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "build magicserver: %v\n%s", err, out)
		os.Exit(1)
	}
	testEnv = &environment{serverBin: bin, tmp: dir, out: filepath.Join(dir, "out"), live: map[*server]bool{}}
	code := m.Run()
	testEnv.reap()
	os.RemoveAll(dir)
	os.Exit(code)
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// TestBenchmarkJSON pins BENCHMARK.json to what the program emits.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	gated := gatedWorkloads()
	if len(spec.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in the program", len(spec.Workloads), len(gated))
	}
	for i, w := range spec.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d is %q (%q), the program has %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, at most 200 allowed", w.Name, len(w.Why))
		}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	match := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the program", len(got), kind, len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s metric %d is %s [%s], the program has %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !nameRE.MatchString(m.Name) || seen[m.Name] {
				t.Errorf("metric name %q is malformed or used twice", m.Name)
			}
			seen[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("metric %s: better = %q", m.Name, m.Better)
			}
			if (kind == "end_to_end") != (m.Bound != nil) {
				t.Errorf("metric %s: only end-to-end metrics carry a bound", m.Name)
			}
			if m.Bound != nil && (*m.Bound < 0.05 || *m.Bound > 0.25) {
				t.Errorf("metric %s: bound %v outside [0.05, 0.25]", m.Name, *m.Bound)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
}

// TestEveryWorkloadTiny runs both passes of every workload for a fraction of
// a second: every answer must check out, every metric must be emitted, and
// the trace file must nest.
func TestEveryWorkloadTiny(t *testing.T) {
	t.Cleanup(func() {
		if len(testEnv.live) != 0 {
			t.Errorf("%d servers still alive after the runs", len(testEnv.live))
		}
	})
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			for _, trace := range []bool{false, true} {
				rep, err := runOne(testEnv, w, 7, 0.3, trace)
				if err != nil {
					t.Fatalf("trace=%v: %v", trace, err)
				}
				if !rep.Correct {
					t.Errorf("trace=%v: %d of %d operations failed", trace, rep.Failed, rep.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, want %d", trace, len(rep.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := rep.Metrics[m.name]
					if !ok || v.Unit != m.unit {
						t.Errorf("trace=%v: metric %s missing or in %q", trace, m.name, v.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want positive", m.name, v.Value)
					}
				}
			}
			if !w.wire {
				checkSpansNest(t, filepath.Join(testEnv.out, "trace-"+w.name+".json"))
			}
		})
	}
}

func TestOpListHash(t *testing.T) {
	for _, w := range workloads {
		a, b, c := opListHash(w, 1994, 500), opListHash(w, 1994, 500), opListHash(w, 2026, 500)
		if a != b {
			t.Errorf("%s: the same seed gave two operation lists", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1994 and 2026 gave the same operation list", w.name)
		}
	}
}

// TestCorruptedDigestCaught: a wrong frozen answer must fail the read, and a
// mangled file must not load.
func TestCorruptedDigestCaught(t *testing.T) {
	w := workloadByName("t1_small_prepared")
	ds, e, err := setupEmbedded(w)
	if err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(ds, false)
	if err != nil {
		t.Fatal(err)
	}
	o := newOpGen(w, 1, 0).next()
	rows, err := e.do(&o)
	if err != nil {
		t.Fatal(err)
	}
	if err := chk.check(&o, rows); err != nil {
		t.Fatalf("the frozen digest rejects a right answer: %v", err)
	}
	chk.digests[o.key] ^= 1
	if err := chk.check(&o, rows); err == nil {
		t.Errorf("a corrupted digest for %s went unnoticed", o.key)
	}
	if _, err := parseDigests(strings.Replace(frozenDigests, "A|Planning ", "A|Planning x", 1)); err == nil {
		t.Error("a mangled digest file loaded without error")
	}
}

// checkSpansNest: in the trace file every stage lies inside its operation's
// span and the stages of one operation sum to no more than the operation.
func checkSpansNest(t *testing.T, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	children := map[int]int64{}
	stages := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
		if s.Parent < 0 {
			continue
		}
		stages++
		p := spans[s.Parent]
		if p.Name != "op" || p.Op != s.Op || s.Start < p.Start || s.End > p.End {
			t.Fatalf("span %d (%s) is not inside its operation's span %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
		children[s.Parent] += s.End - s.Start
	}
	if stages == 0 {
		t.Fatal("no stage spans recorded")
	}
	for id, sum := range children {
		if op := spans[id]; sum > op.End-op.Start {
			t.Errorf("operation %d: stages sum to %d ns, the operation took %d ns", op.Op, sum, op.End-op.Start)
		}
	}
}

// TestStagedPlanMatchesEngine: the replayed pipeline must lower the plan the
// engine lowers, for every shape.
func TestStagedPlanMatchesEngine(t *testing.T) {
	_, e, err := setupEmbedded(workloadByName("t1_small_adhoc"))
	if err != nil {
		t.Fatal(err)
	}
	for id, sh := range shapes {
		p, err := e.db.PrepareContext(context.Background(), sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := stagePrepare(newLayers().tr, -1, -1, e.db.Engine(), sh.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := samePlan(sp, p); err != nil {
			t.Errorf("shape %s: %v", id, err)
		}
	}
}
