// Command benchmark is starmagic's one benchmark: six named workloads,
// end-to-end latency and throughput with tracing off, and per-layer timings
// taken from outside the program in a separate traced pass. See README.md.
//
//	bash benchmark/run.sh --workload t1_large --seed 7 --seconds 28 --trace 0
//	bash benchmark/run.sh --seed 1994          every workload, both passes
//	bash benchmark/run.sh --agree              two sets of runs, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
}

var perLayer = []metricDef{
	{"sql.parse_us", "us"},
	{"semant.bind_us", "us"}, {"semant.boxes", "count"},
	{"rewrite.phase1_us", "us"}, {"rewrite.phase3_us", "us"},
	{"rewrite.rule_attempts", "count"}, {"rewrite.rule_fires", "count"}, {"rewrite.fire_ratio", "ratio"},
	{"opt.planopt1_us", "us"}, {"opt.planopt2_us", "us"}, {"opt.plans_considered", "count"},
	{"core.emst_us", "us"}, {"core.boxes_after_phase3", "count"}, {"core.used_emst_share", "ratio"},
	{"plan.lower_us", "us"}, {"plan.operators", "count"},
	{"exec.execute_us", "us"}, {"exec.execute_share", "ratio"},
	{"exec.rows_examined", "count"}, {"exec.rows_out", "count"}, {"exec.examined_per_out", "ratio"},
	{"exec.vec_op_share", "ratio"}, {"exec.box_evals", "count"},
	{"engine.optimizer_share", "ratio"}, {"engine.unattributed_us", "us"},
	{"engine.prepare_hit_us", "us"}, {"engine.plan_cache_hit_ratio", "ratio"},
	{"engine.allocs_per_op", "count"}, {"engine.bytes_per_op", "B"},
	{"engine.commit_us", "us"},
	{"storage.view_us", "us"}, {"storage.lookup_us", "us"}, {"storage.garbage_versions", "count"},
	{"wal.append_us", "us"}, {"wal.durable_wait_us", "us"},
	{"wal.bytes_per_commit", "B"}, {"wal.commits_per_fsync", "ratio"},
	{"wal.recovery_ms_per_mb", "ms/MB"}, {"wal.recovery_s", "s"},
	{"wire.ping_us", "us"}, {"wire.overhead_us", "us"}, {"wire.encode_ns_row", "ns"},
	{"wire.read_p50_us", "us"}, {"wire.write_p50_us", "us"}, {"wire.write_p99_us", "us"},
	{"catalog.analyze_ms", "ms"}, {"catalog.reanalyze_ms", "ms"},
	{"table1.A.emst_pct", "%"}, {"table1.A.correlated_pct", "%"},
	{"table1.B.emst_pct", "%"}, {"table1.B.correlated_pct", "%"},
	{"table1.C.emst_pct", "%"}, {"table1.C.correlated_pct", "%"},
	{"table1.D.emst_pct", "%"}, {"table1.D.correlated_pct", "%"},
	{"table1.E.emst_pct", "%"}, {"table1.E.correlated_pct", "%"},
	{"table1.F.emst_pct", "%"}, {"table1.F.correlated_pct", "%"},
	{"table1.G.emst_pct", "%"}, {"table1.G.correlated_pct", "%"},
	{"table1.H.emst_pct", "%"}, {"table1.H.correlated_pct", "%"},
	{"trace.overhead_pct", "%"},
}

// environment is where a run finds the server binary and may write: all of
// it inside the checkout. It also reaps every child server on the way out.
type environment struct {
	serverBin string
	tmp       string // scratch root for data directories
	out       string // where trace files go

	mu   sync.Mutex
	live map[*server]bool
}

func (e *environment) track(s *server) {
	e.mu.Lock()
	e.live[s] = true
	e.mu.Unlock()
}

func (e *environment) untrack(s *server) {
	e.mu.Lock()
	delete(e.live, s)
	e.mu.Unlock()
}

// reap kills every live server and removes its directory.
func (e *environment) reap() {
	e.mu.Lock()
	var live []*server
	for s := range e.live {
		live = append(live, s)
	}
	e.mu.Unlock()
	for _, s := range live {
		s.stop()
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object a run prints as its last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload in one mode and prints what went wrong to stderr.
func runOne(env *environment, w *workload, seed int64, seconds float64, trace bool) (*report, error) {
	rep := &report{Metrics: map[string]metricValue{}}
	var errs []string
	if trace {
		l, err := tracedPass(env, w, seed, seconds)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed, errs = l.attempted, l.failed, l.errs
		for _, m := range perLayer {
			rep.Metrics[m.name] = metricValue{l.values[m.name], m.unit}
		}
	} else {
		t, err := timedPass(env, w, seed, seconds)
		if err != nil {
			return nil, err
		}
		rep.Attempted, rep.Failed, errs = t.attempted, t.failed, t.errs
		values := map[string]float64{
			"setup_s":          t.setupS,
			"throughput_ops_s": t.throughput,
			"p50_us":           t.p50,
			"p99_us":           t.p99,
		}
		for _, m := range endToEnd {
			rep.Metrics[m.name] = metricValue{values[m.name], m.unit}
		}
		fmt.Fprintf(os.Stderr, "%s: %d reads and %d writes timed in %d windows; a window's p99 has %d samples beyond it; %.1f op/s over the whole run\n",
			w.name, t.reads, t.writes, t.windows, t.reads/t.windows/100, t.wholeRun)
	}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "%s: FAILED %s\n", w.name, e)
	}
	return rep, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its JSON result (default: every workload, both passes)")
		seed    = flag.Int64("seed", 1994, "shapes the operation lists; the only input that does")
		seconds = flag.Float64("seconds", 28, "measuring time of one run; 28 is BENCHMARK.json's run_seconds")
		trace   = flag.Int("trace", 0, "0: timed pass, end-to-end metrics; 1: traced pass, per-layer metrics")
		agree   = flag.Bool("agree", false, "run every workload's timed pass twice and compare against the bounds in BENCHMARK.json")
		freeze  = flag.Bool("freeze", false, "regenerate benchmark/expected/digests.txt")
	)
	flag.Parse()
	// benchmark/run.sh builds the server and starts this program at the
	// root of the checkout; everything written stays under these paths.
	env := &environment{tmp: ".bench_build/tmp", out: "benchmark/out", live: map[*server]bool{}}
	err := os.MkdirAll(env.tmp, 0o755)
	if err == nil {
		env.serverBin, err = filepath.Abs(".bench_build/magicserver")
	}
	if err != nil {
		fatal(err)
	}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		env.reap()
		os.Exit(130)
	}()
	defer env.reap()

	switch {
	case *freeze:
		err = freezeDigests("benchmark/expected/digests.txt")
	case *agree:
		err = agreeRuns(env, *seed, *seconds)
	case *name == "":
		err = suite(env, *seed, *seconds)
	default:
		w := workloadByName(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: op list hash %016x; closed loop, %d client(s); flush policy %s\n",
			w.name, *seed, opListHash(w, *seed, 1000), w.clients(), flushPolicy)
		var rep *report
		if rep, err = runOne(env, w, *seed, *seconds, *trace == 1); err == nil {
			var line []byte
			if line, err = json.Marshal(rep); err == nil {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		env.reap()
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func machineLine() string {
	return fmt.Sprintf("machine: nproc %d, GOMAXPROCS %d, %s; wire workloads flush with %s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), flushPolicy)
}
