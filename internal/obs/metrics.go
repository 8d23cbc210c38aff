package obs

import "sync"

// ExecStats mirrors the executor's work counters in a dependency-free form
// (internal/exec cannot be imported here without a cycle; the engine copies
// field by field).
type ExecStats struct {
	BaseRows      int64 `json:"base_rows"`
	BoxEvals      int64 `json:"box_evals"`
	SubqueryEvals int64 `json:"subquery_evals"`
	HashBuilds    int64 `json:"hash_builds"`
	HashProbes    int64 `json:"hash_probes"`
	IndexLookups  int64 `json:"index_lookups"`
	OutputRows    int64 `json:"output_rows"`
}

// Add accumulates other into e.
func (e *ExecStats) Add(other ExecStats) {
	e.BaseRows += other.BaseRows
	e.BoxEvals += other.BoxEvals
	e.SubqueryEvals += other.SubqueryEvals
	e.HashBuilds += other.HashBuilds
	e.HashProbes += other.HashProbes
	e.IndexLookups += other.IndexLookups
	e.OutputRows += other.OutputRows
}

// PlanSample is one optimization's (Prepare's) contribution to the metrics:
// what the rewrite pipeline did and how the §3.2 cost comparison came out.
type PlanSample struct {
	// Err marks a failed parse/bind/optimization.
	Err bool
	// Strategy is the strategy name ("emst", "original", "correlated").
	Strategy string
	// EMSTConsidered reports that the pre-/post-EMST cost comparison ran
	// (only the EMST strategy runs it); UsedEMST reports that it chose the
	// transformed plan.
	EMSTConsidered bool
	UsedEMST       bool
	// CostBefore/CostAfter are the optimizer estimates around EMST.
	CostBefore, CostAfter float64
	// OptimizeNanos is the pipeline wall-clock (rewrite + both plan passes).
	OptimizeNanos int64
	// RuleFires counts graph-mutating rewrite-rule applications by rule.
	RuleFires map[string]int64
	// CacheHit marks a prepare served from the plan cache: the stored
	// optimization already contributed its cost/rule-fire sample when it was
	// prepared cold, so only the call itself is counted.
	CacheHit bool
}

// ExecSample is one execution's contribution to the metrics.
type ExecSample struct {
	// Err marks a failed or cancelled execution.
	Err bool
	// Strategy is the strategy name the plan was prepared under.
	Strategy string
	// ExecNanos is the evaluation wall-clock.
	ExecNanos int64
	// Exec is the executor counter snapshot of this run.
	Exec ExecStats
	// Operators lists the run's per-physical-operator counters.
	Operators OpCounters
	// Mem is the memory-governance footprint of the run; the zero value
	// means the run executed without a budget.
	Mem MemSample
	// AdmissionWaitNanos is the time this run spent queued for an admission
	// slot before executing (0 when admission control is off or a slot was
	// free).
	AdmissionWaitNanos int64
}

// MemSample is one budgeted execution's memory footprint.
type MemSample struct {
	// LimitBytes is the per-query memory budget the run executed under.
	LimitBytes int64 `json:"limit_bytes"`
	// PeakBytes is the budget's reservation high-water mark.
	PeakBytes int64 `json:"peak_bytes"`
	// SpilledBytes and Spills count spill-to-disk traffic: bytes written and
	// discrete spill events (hash-partition page-outs, sort-run flushes).
	SpilledBytes int64 `json:"spilled_bytes"`
	Spills       int64 `json:"spills"`
}

// OpCounters lists one run's physical operators: each one's kind, output
// rows and inclusive wall-clock nanos. The engine reads them straight from
// the executed plan, so recording a run copies nothing per operator.
type OpCounters interface {
	Len() int
	Op(i int) (kind string, rows, nanos int64)
}

// InternStats is the engine-wide string-intern table snapshot (the
// dependency-free mirror of internal/vec's InternStats — the engine copies
// field by field).
type InternStats struct {
	// Strings is the number of distinct interned strings; Bytes approximates
	// their resident footprint.
	Strings int64 `json:"strings"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count intern/lookup calls that did and did not find
	// the string already present. Hits/(Hits+Misses) is the hit rate.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// WALStats is the durability snapshot of a disk-backed database: write-ahead
// log activity, checkpoint work, and what recovery-on-open replayed (the
// dependency-free mirror of internal/wal's Stats — the engine copies field
// by field; all zero for in-memory databases).
type WALStats struct {
	// Appends/AppendedBytes count framed log records buffered for write.
	Appends       int64 `json:"appends"`
	AppendedBytes int64 `json:"appended_bytes"`
	// Fsyncs counts segment fsync calls; Synced the commit records those
	// fsyncs covered. GroupCommitMean = Synced/Fsyncs is the mean
	// group-commit batch size (1.0 means no batching happened).
	Fsyncs          int64   `json:"fsyncs"`
	Synced          int64   `json:"synced"`
	GroupCommitMean float64 `json:"group_commit_mean"`
	// Rotations counts log-segment rollovers (one per checkpoint attempt);
	// Checkpoints committed checkpoint images, with the size and wall-clock
	// of the most recent one.
	Rotations       int64 `json:"rotations"`
	Checkpoints     int64 `json:"checkpoints"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	CheckpointNanos int64 `json:"checkpoint_nanos"`
	// SegmentBytes is the current segment's size — the distance to the next
	// size-triggered checkpoint.
	SegmentBytes int64 `json:"segment_bytes"`
	// RecoveryNanos/RecoveryRecords describe the recovery OpenDir performed:
	// wall-clock and log records (commits + DDL) replayed past the
	// checkpoint image.
	RecoveryNanos   int64 `json:"recovery_nanos"`
	RecoveryRecords int64 `json:"recovery_records"`
}

// Metrics is a point-in-time snapshot of engine activity since Open (or the
// last Reset): optimization volume and plan-choice outcomes of the paper's
// §3.2 cost comparison (per prepared plan), execution volume and cumulative
// executor work (per run), and rewrite-rule fire counts.
type Metrics struct {
	// Plans counts optimizations (Prepare/Explain calls, including failed
	// ones, and the plans made for a binding's selectivity class); Queries
	// counts plan executions. A plan prepared once and
	// executed N times contributes 1 and N respectively.
	Plans   int64 `json:"plans"`
	Queries int64 `json:"queries"`
	// Errors counts failed optimizations plus failed/cancelled executions.
	Errors int64 `json:"errors"`
	// ByStrategy counts executions per strategy name.
	ByStrategy map[string]int64 `json:"by_strategy"`
	// EMSTChosen/PreEMSTChosen split the cost-comparison outcomes: how often
	// the magic plan won versus how often the engine fell back.
	EMSTChosen    int64 `json:"emst_chosen"`
	PreEMSTChosen int64 `json:"pre_emst_chosen"`
	// CostDelta sums CostBefore-CostAfter over comparisons that chose EMST:
	// the optimizer's estimate of the total work magic saved.
	CostDelta float64 `json:"cost_delta"`
	// OptimizeNanos/ExecNanos accumulate pipeline wall-clock.
	OptimizeNanos int64 `json:"optimize_nanos"`
	ExecNanos     int64 `json:"exec_nanos"`
	// RuleFires accumulates graph-mutating rewrite-rule applications.
	RuleFires map[string]int64 `json:"rule_fires"`
	// Exec accumulates executor counters across all executions.
	Exec ExecStats `json:"exec"`
	// OpRows/OpNanos accumulate per-operator-kind output rows and inclusive
	// wall-clock across streaming executions.
	OpRows  map[string]int64 `json:"op_rows"`
	OpNanos map[string]int64 `json:"op_nanos"`
	// Plan-cache counters. CacheHits counts prepares served from the cache,
	// CacheMisses cold optimizations entered into it, CacheShared prepares
	// that waited on another caller's in-flight miss (single-flight), and
	// CacheEvictions entries displaced by LRU capacity.
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheShared    int64 `json:"cache_shared"`
	CacheEvictions int64 `json:"cache_evictions"`
	// Memory-governance counters. BytesSpilled/Spills accumulate spill-to-
	// disk traffic across budgeted executions; MemPeakBytes is the largest
	// single-query reservation high-water mark observed.
	BytesSpilled int64 `json:"bytes_spilled"`
	Spills       int64 `json:"spills"`
	MemPeakBytes int64 `json:"mem_peak_bytes"`
	// Admission-control counters. AdmissionWaits counts executions that
	// queued for a slot, AdmissionWaitNanos their total queued time, and
	// AdmissionRejected executions bounced by a full queue (or a done
	// deadline) before running.
	AdmissionWaits     int64 `json:"admission_waits"`
	AdmissionWaitNanos int64 `json:"admission_wait_nanos"`
	AdmissionRejected  int64 `json:"admission_rejected"`
	// Transaction counters. TxnBegins/TxnCommits/TxnRollbacks count explicit
	// and autocommit transactions (every DML statement outside an explicit
	// transaction is one autocommit transaction); TxnConflicts counts
	// first-updater-wins write-write conflicts (MySQL errno 1213), which
	// roll the losing transaction back.
	TxnBegins    int64 `json:"txn_begins"`
	TxnCommits   int64 `json:"txn_commits"`
	TxnRollbacks int64 `json:"txn_rollbacks"`
	TxnConflicts int64 `json:"txn_conflicts"`
	// Vacuum counters. VacuumRuns counts background/explicit vacuum passes;
	// VacuumReclaimed the row versions they removed.
	VacuumRuns      int64 `json:"vacuum_runs"`
	VacuumReclaimed int64 `json:"vacuum_reclaimed"`
	// Intern is the engine-wide string-intern table at snapshot time (filled
	// by the engine from storage, not accumulated through the sink).
	Intern InternStats `json:"intern"`
	// WAL is the durability snapshot at snapshot time (filled by the engine
	// from the write-ahead log, not accumulated through the sink; zero for
	// in-memory databases).
	WAL WALStats `json:"wal"`
}

// MetricsSink accumulates samples; Snapshot returns an independent Metrics
// copy. Safe for concurrent use.
type MetricsSink struct {
	mu sync.Mutex
	m  Metrics
}

// RecordPlan folds one optimization's sample into the sink.
func (s *MetricsSink) RecordPlan(p PlanSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Plans++
	if p.Err {
		s.m.Errors++
		return
	}
	if p.CacheHit {
		return
	}
	if p.EMSTConsidered {
		if p.UsedEMST {
			s.m.EMSTChosen++
			s.m.CostDelta += p.CostBefore - p.CostAfter
		} else {
			s.m.PreEMSTChosen++
		}
	}
	s.m.OptimizeNanos += p.OptimizeNanos
	if len(p.RuleFires) > 0 {
		if s.m.RuleFires == nil {
			s.m.RuleFires = map[string]int64{}
		}
		for rule, n := range p.RuleFires {
			s.m.RuleFires[rule] += n
		}
	}
}

// RecordExec folds one execution's sample into the sink.
func (s *MetricsSink) RecordExec(e ExecSample) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Queries++
	if e.Err {
		s.m.Errors++
	}
	if e.Strategy != "" {
		if s.m.ByStrategy == nil {
			s.m.ByStrategy = map[string]int64{}
		}
		s.m.ByStrategy[e.Strategy]++
	}
	s.m.ExecNanos += e.ExecNanos
	s.m.Exec.Add(e.Exec)
	if e.Operators != nil {
		for i := range e.Operators.Len() {
			kind, rows, nanos := e.Operators.Op(i)
			if s.m.OpRows == nil {
				s.m.OpRows = map[string]int64{}
				s.m.OpNanos = map[string]int64{}
			}
			s.m.OpRows[kind] += rows
			s.m.OpNanos[kind] += nanos
		}
	}
	s.m.BytesSpilled += e.Mem.SpilledBytes
	s.m.Spills += e.Mem.Spills
	if e.Mem.PeakBytes > s.m.MemPeakBytes {
		s.m.MemPeakBytes = e.Mem.PeakBytes
	}
	if e.AdmissionWaitNanos > 0 {
		s.m.AdmissionWaits++
		s.m.AdmissionWaitNanos += e.AdmissionWaitNanos
	}
}

// RecordAdmissionRejected counts an execution bounced by admission control
// before it could run (full queue or expired deadline).
func (s *MetricsSink) RecordAdmissionRejected() {
	s.mu.Lock()
	s.m.AdmissionRejected++
	s.mu.Unlock()
}

// RecordCacheHit counts a prepare served from the plan cache.
func (s *MetricsSink) RecordCacheHit() {
	s.mu.Lock()
	s.m.CacheHits++
	s.mu.Unlock()
}

// RecordCacheMiss counts a cold optimization entered into the plan cache.
func (s *MetricsSink) RecordCacheMiss() {
	s.mu.Lock()
	s.m.CacheMisses++
	s.mu.Unlock()
}

// RecordCacheShared counts a prepare that waited on another caller's
// in-flight miss instead of optimizing (single-flight).
func (s *MetricsSink) RecordCacheShared() {
	s.mu.Lock()
	s.m.CacheShared++
	s.mu.Unlock()
}

// RecordCacheEvictions counts plan-cache entries displaced by LRU capacity.
func (s *MetricsSink) RecordCacheEvictions(n int) {
	s.mu.Lock()
	s.m.CacheEvictions += int64(n)
	s.mu.Unlock()
}

// RecordTxnBegin counts a transaction start (explicit or autocommit).
func (s *MetricsSink) RecordTxnBegin() {
	s.mu.Lock()
	s.m.TxnBegins++
	s.mu.Unlock()
}

// RecordTxnCommit counts a committed transaction.
func (s *MetricsSink) RecordTxnCommit() {
	s.mu.Lock()
	s.m.TxnCommits++
	s.mu.Unlock()
}

// RecordTxnRollback counts a rolled-back transaction.
func (s *MetricsSink) RecordTxnRollback() {
	s.mu.Lock()
	s.m.TxnRollbacks++
	s.mu.Unlock()
}

// RecordTxnConflict counts a first-updater-wins write-write conflict.
func (s *MetricsSink) RecordTxnConflict() {
	s.mu.Lock()
	s.m.TxnConflicts++
	s.mu.Unlock()
}

// RecordVacuum counts one vacuum pass and the versions it reclaimed.
func (s *MetricsSink) RecordVacuum(reclaimed int) {
	s.mu.Lock()
	s.m.VacuumRuns++
	s.m.VacuumReclaimed += int64(reclaimed)
	s.mu.Unlock()
}

// Snapshot returns a deep copy of the accumulated metrics.
func (s *MetricsSink) Snapshot() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.m
	out.ByStrategy = copyMap(s.m.ByStrategy)
	out.RuleFires = copyMap(s.m.RuleFires)
	out.OpRows = copyMap(s.m.OpRows)
	out.OpNanos = copyMap(s.m.OpNanos)
	return out
}

// Reset zeroes the accumulated metrics.
func (s *MetricsSink) Reset() {
	s.mu.Lock()
	s.m = Metrics{}
	s.mu.Unlock()
}

func copyMap(m map[string]int64) map[string]int64 {
	if m == nil {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
