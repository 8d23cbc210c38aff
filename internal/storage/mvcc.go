// MVCC: every stored row is a version stamped with a begin and an end
// timestamp. Committed timestamps come from the engine's global commit
// clock; versions written by an in-flight transaction carry the writer's
// transaction id (TxnIDBit set) until commit rewrites them to the commit
// timestamp, or rollback retires them. Readers never take more than the
// relation's shared read lock, and only long enough to capture the
// append-only backing arrays — a snapshot read never blocks a writer and a
// writer never blocks a snapshot read.
//
// The write protocol is first-updater-wins: DELETE (and the delete half of
// UPDATE) claims a version by CAS-ing its end stamp from Live to the
// transaction id. A failed CAS means another transaction — committed or
// still in flight — already deleted that version, and the statement fails
// with ErrConflict immediately rather than waiting.
//
// Safety of stale captures: a reader captures the rows/begins/ends slice
// headers under the read lock and then reads stamps with atomic loads. A
// concurrent commit may rewrite a stamp in the relation's *current* arrays
// after the reader captured an older backing array (appends reallocate).
// Either value gives the same answer: the commit's timestamp is greater
// than the reader's snapshot timestamp (the commit happened after the
// snapshot was taken), so the version is invisible whether the reader sees
// the in-flight marker or the final stamp, and a deleted end stamp greater
// than the snapshot still reads as visible, exactly as Live would.
package storage

import (
	"errors"
	"sync"
	"sync/atomic"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/vec"
)

const (
	// TxnIDBit distinguishes in-flight transaction ids from committed
	// timestamps in begin/end stamps. Transaction ids are TxnIDBit|seq.
	TxnIDBit = uint64(1) << 63

	// Live is the end stamp of a version that has not been deleted.
	Live = ^uint64(0)

	// abortedBegin marks a version whose inserting transaction rolled
	// back. It has TxnIDBit set but can never equal a real transaction id
	// (ids are TxnIDBit|seq with seq well below 2^63-1), so it is
	// invisible to every snapshot including the writer's own.
	abortedBegin = ^uint64(0)

	// ReadAllTS is the largest valid snapshot timestamp: a snapshot at
	// ReadAllTS sees every committed, undeleted version.
	ReadAllTS = TxnIDBit - 1
)

// ErrConflict reports a first-updater-wins write-write conflict: the version
// a DELETE or UPDATE tried to claim was already claimed or deleted by
// another transaction.
var ErrConflict = errors.New("write-write conflict")

// Snap is a snapshot: a commit-timestamp horizon plus the reading
// transaction's own id (zero for pure readers), so a transaction sees its
// own uncommitted writes.
type Snap struct {
	TS   uint64 // sees versions committed at or before TS
	Self uint64 // this transaction's id, or 0
}

// ReadAll is the snapshot that sees every committed, undeleted version.
var ReadAll = Snap{TS: ReadAllTS}

// Visible reports whether a version with the given begin/end stamps is in
// the snapshot.
func (s Snap) Visible(begin, end uint64) bool {
	if begin&TxnIDBit != 0 {
		// In-flight insert (or aborted): visible only to its writer.
		if begin != s.Self {
			return false
		}
	} else if begin > s.TS {
		return false // committed after the snapshot
	}
	if end == Live {
		return true
	}
	if end&TxnIDBit != 0 {
		// In-flight delete: gone for its writer, still visible to others.
		return end != s.Self
	}
	return end > s.TS // committed delete: visible iff it happened after us
}

// maxU64 atomically raises *p to at least v.
func maxU64(p *atomic.Uint64, v uint64) {
	for {
		cur := p.Load()
		if cur >= v || p.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Append adds a row version with the given begin stamp (a commit timestamp
// for already-committed loads, or a transaction id for in-flight inserts)
// and returns its position. The position stays valid until the version is
// resolved: vacuum never touches a relation with unresolved markers.
func (r *Relation) Append(row datum.Row, begin uint64) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.appendLocked(row, begin)
}

// DeleteWhere scans the versions visible to s, and claims every one
// matching pred for deletion by txnID. onMark is called (still under the
// read lock, so it must not touch the relation or block) for each claimed
// position so the caller can record it in a write set — including claims
// made before a conflict aborts the scan, which the caller must then roll
// back. Running the whole scan-and-claim under one read lock is what keeps
// the claimed positions valid: vacuum needs the write lock, so it cannot
// reshuffle positions mid-scan, and afterwards the unresolved markers keep
// it away.
func (r *Relation) DeleteWhere(s Snap, txnID uint64, pred func(datum.Row) (bool, error), onMark func(pos int, row datum.Row)) (int64, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var n int64
	for pos := range r.rows {
		if !s.Visible(atomic.LoadUint64(&r.begins[pos]), atomic.LoadUint64(&r.ends[pos])) {
			continue
		}
		match, err := pred(r.rows[pos])
		if err != nil {
			return n, err
		}
		if !match {
			continue
		}
		if !atomic.CompareAndSwapUint64(&r.ends[pos], Live, txnID) {
			return n, ErrConflict
		}
		r.dirty.Add(1)
		r.inflight.Add(1)
		onMark(pos, r.rows[pos])
		n++
	}
	return n, nil
}

// FinishAppend commits an in-flight insert at position pos with commit
// timestamp ts.
func (r *Relation) FinishAppend(pos int, ts uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	atomic.StoreUint64(&r.begins[pos], ts)
	// Raise maxBegin before releasing the dirty count: a reader that
	// observes dirty==0 must also observe this version's begin stamp in
	// maxBegin, or its zero-copy fast path would leak the version into
	// older snapshots.
	maxU64(&r.maxBegin, ts)
	r.dirty.Add(-1)
	r.inflight.Add(-1)
}

// AbortAppend retires an in-flight insert: the version becomes invisible to
// every snapshot and is reclaimed by the next vacuum.
func (r *Relation) AbortAppend(pos int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	atomic.StoreUint64(&r.begins[pos], abortedBegin)
	r.inflight.Add(-1)
}

// FinishDelete commits an in-flight delete at position pos with commit
// timestamp ts.
func (r *Relation) FinishDelete(pos int, ts uint64) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	atomic.StoreUint64(&r.ends[pos], ts)
	r.inflight.Add(-1)
}

// AbortDelete releases a claimed delete, restoring the version to Live.
func (r *Relation) AbortDelete(pos int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	atomic.StoreUint64(&r.ends[pos], Live)
	r.dirty.Add(-1)
	r.inflight.Add(-1)
}

// relCapture is one relation's state captured under the read lock: the
// append-only backing arrays plus the version count. Entries [0, n) of the
// captured arrays never change except for stamp resolution, which is
// benign (see the package comment on stale captures). indexes is the index
// generation the arrays belong to: positions it holds address these arrays
// even after a vacuum or rebuild has swapped in new ones.
type relCapture struct {
	n       int
	rows    []datum.Row
	begins  []uint64
	ends    []uint64
	cols    []vec.Col
	indexes []*HashIndex
	tab     *vec.Intern
	all     bool // every version in [0, n) is visible to the capturing snapshot
}

// capture snapshots the relation's backing arrays for snapshot s. The
// ordering of the two atomic loads against FinishAppend's stores is what
// makes the fast path sound: dirty is loaded first, so observing dirty==0
// guarantees every committed begin stamp is already reflected in maxBegin.
func (r *Relation) capture(s Snap, withCols bool) relCapture {
	r.mu.RLock()
	c := relCapture{n: len(r.rows), rows: r.rows, begins: r.begins, ends: r.ends, indexes: r.indexes, tab: r.tab}
	if withCols {
		c.cols = make([]vec.Col, len(r.cols))
		copy(c.cols, r.cols)
	}
	dirty := r.dirty.Load()
	mb := r.maxBegin.Load()
	r.mu.RUnlock()
	c.all = dirty == 0 && mb <= s.TS
	return c
}

// visibleRows gathers the rows of c visible to s; zero-copy when every
// version qualifies.
func (c *relCapture) visibleRows(s Snap) []datum.Row {
	if c.all {
		return c.rows[:c.n:c.n]
	}
	out := make([]datum.Row, 0, c.n)
	for i := 0; i < c.n; i++ {
		if s.Visible(atomic.LoadUint64(&c.begins[i]), atomic.LoadUint64(&c.ends[i])) {
			out = append(out, c.rows[i])
		}
	}
	return out
}

// visibleSel builds the ascending selection of version positions visible
// to s, or nil when every version is (the vectorized scan then drives
// straight over [0, N) with no indirection).
func (c *relCapture) visibleSel(s Snap) []int32 {
	if c.all {
		return nil
	}
	out := make([]int32, 0, c.n)
	for i := 0; i < c.n; i++ {
		if s.Visible(atomic.LoadUint64(&c.begins[i]), atomic.LoadUint64(&c.ends[i])) {
			out = append(out, int32(i))
		}
	}
	return out
}

// LookupSnap is Lookup filtered to the versions visible to s. It probes the
// relation's current index — positions found and rows fetched under the
// same read lock, so vacuum cannot move them mid-probe — and the returned
// rows carry their strings inline, immune to intern compaction.
func (r *Relation) LookupSnap(cols []int, key datum.Row, s Snap) ([]datum.Row, bool) {
	return r.lookupInto(cols, key, s, nil)
}

// lookupInto is LookupSnap appending the matches to dst, so a caller probing
// once per outer row can reuse one result buffer.
func (r *Relation) lookupInto(cols []int, key datum.Row, s Snap, dst []datum.Row) ([]datum.Row, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	positions, ok := r.probeLocked(cols, key)
	if !ok {
		return nil, false
	}
	for _, pos := range positions {
		if s.Visible(atomic.LoadUint64(&r.begins[pos]), atomic.LoadUint64(&r.ends[pos])) {
			dst = append(dst, r.rows[pos])
		}
	}
	return dst, true
}

// AddIndex builds a hash index over cols in place, covering every stored
// version (dead versions are filtered at lookup by visibility). The new
// index serves probes as soon as the write lock releases.
func (r *Relation) AddIndex(cols []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := &HashIndex{
		Cols:    append([]int(nil), cols...),
		buckets: make(map[string][]int),
	}
	for pos, row := range r.rows {
		r.keyBuf = datum.AppendKeyOf(r.keyBuf[:0], row, idx.Cols)
		k := string(r.keyBuf)
		idx.buckets[k] = append(idx.buckets[k], pos)
	}
	r.indexes = append(r.indexes, idx)
}

// Vacuum drops versions no snapshot at or after horizon can see: aborted
// inserts and versions whose delete committed at or before the horizon. A
// relation with unresolved transaction markers is skipped entirely —
// in-flight write sets hold positions into the current arrays, and those
// positions must stay stable. Returns the number of versions reclaimed.
// Captures taken before the vacuum keep reading the old arrays and stay
// consistent.
func (r *Relation) Vacuum(horizon uint64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.inflight.Load() != 0 {
		return 0
	}
	removable := func(pos int) bool {
		b, e := r.begins[pos], r.ends[pos]
		if b == abortedBegin {
			return true
		}
		return e != Live && e&TxnIDBit == 0 && e <= horizon
	}
	dead := 0
	for pos := range r.rows {
		if removable(pos) {
			dead++
		}
	}
	if dead == 0 {
		return 0
	}
	n := len(r.rows) - dead
	rows := make([]datum.Row, 0, n)
	begins := make([]uint64, 0, n)
	ends := make([]uint64, 0, n)
	cols := newCols(r.Meta)
	indexes := newIndexes(r.Meta)
	for _, idx := range r.indexes { // preserve indexes added after create
		if findIndexIn(indexes, idx.Cols) == nil {
			indexes = append(indexes, &HashIndex{
				Cols:    append([]int(nil), idx.Cols...),
				buckets: make(map[string][]int),
			})
		}
	}
	var dirty int64
	var maxBegin uint64
	for pos, row := range r.rows {
		if removable(pos) {
			continue
		}
		p := len(rows)
		rows = append(rows, row)
		begins = append(begins, r.begins[pos])
		ends = append(ends, r.ends[pos])
		for i, d := range row {
			cols[i].Append(d, r.tab)
		}
		for _, idx := range indexes {
			r.keyBuf = datum.AppendKeyOf(r.keyBuf[:0], row, idx.Cols)
			k := string(r.keyBuf)
			idx.buckets[k] = append(idx.buckets[k], p)
		}
		if r.ends[pos] != Live {
			dirty++
		}
		if b := r.begins[pos]; b&TxnIDBit == 0 && b > maxBegin {
			maxBegin = b
		}
	}
	r.rows, r.begins, r.ends, r.cols, r.indexes = rows, begins, ends, cols, indexes
	r.dirty.Store(dirty)
	r.maxBegin.Store(maxBegin)
	return dead
}

// Garbage estimates the number of reclaimable versions (dead or aborted,
// minus in-flight markers that will resolve either way).
func (r *Relation) Garbage() int64 {
	g := r.dirty.Load() - r.inflight.Load()
	if g < 0 {
		return 0
	}
	return g
}

// Vacuum reclaims dead versions across every relation. horizon must not
// exceed the oldest live snapshot's timestamp.
func (s *Store) Vacuum(horizon uint64) int {
	s.mu.RLock()
	rels := make([]*Relation, 0, len(s.rels))
	for _, r := range s.rels {
		rels = append(rels, r)
	}
	s.mu.RUnlock()
	total := 0
	for _, r := range rels {
		total += r.Vacuum(horizon)
	}
	return total
}

// View is the storage a single query (or transaction) reads: one snapshot,
// with every relation's backing arrays captured eagerly and atomically
// (under the store lock, which intern compaction excludes), so all captured
// relations resolve strings through the same intern table and cross-table
// id comparisons stay sound even if compaction runs mid-query.
type View struct {
	store *Store
	snap  Snap

	mu   sync.RWMutex
	rels map[string]*RelView
}

// NewView captures every relation for snapshot s. The capture is cheap —
// slice headers and a column-descriptor copy per relation, no row copying.
func (s *Store) NewView(snap Snap) *View {
	v := &View{store: s, snap: snap}
	v.captureAll()
	return v
}

// LiveView returns a lazy view at ReadAll: relations are captured on first
// access. It serves direct evaluator use (tests, benchmarks) where no
// transactions or compaction run concurrently; engine queries use eager
// NewView snapshots.
func (s *Store) LiveView() *View {
	return &View{store: s, snap: ReadAll, rels: make(map[string]*RelView)}
}

func (v *View) captureAll() {
	v.store.mu.RLock()
	rels := make(map[string]*RelView, len(v.store.rels))
	for name, r := range v.store.rels {
		rels[name] = newRelView(r, v.snap)
	}
	v.store.mu.RUnlock()
	v.mu.Lock()
	v.rels = rels
	v.mu.Unlock()
}

// Relation resolves a captured relation view by table name, capturing on
// demand for relations created after the view (DDL is serialized against
// query prepare, so this only serves lazy views and benign races).
func (v *View) Relation(name string) (*RelView, bool) {
	key := lower(name)
	v.mu.RLock()
	rv, ok := v.rels[key]
	v.mu.RUnlock()
	if ok {
		return rv, true
	}
	r, ok := v.store.Relation(name)
	if !ok {
		return nil, false
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if rv, ok := v.rels[key]; ok {
		return rv, true
	}
	rv = newRelView(r, v.snap)
	v.rels[key] = rv
	return rv, true
}

// Refresh re-captures every relation at the same snapshot. A transaction
// calls it after each DML statement so later statements see the
// transaction's own writes (Self-stamped versions appended after the
// previous capture).
func (v *View) Refresh() {
	v.captureAll()
}

// RelView is one relation as seen through a view's snapshot. Visibility
// gathers (row slice, vectorized selection) are computed once on first use
// and memoized; the zero-copy fast path skips them entirely when every
// captured version is visible. Safe for concurrent use.
type RelView struct {
	Meta *catalog.Table
	rel  *Relation
	snap Snap
	cap  relCapture

	mu       sync.Mutex
	visRows  []datum.Row
	rowsDone bool
	vis      []int32
	visDone  bool
}

func newRelView(r *Relation, snap Snap) *RelView {
	return &RelView{Meta: r.Meta, rel: r, snap: snap, cap: r.capture(snap, true)}
}

// Rows returns the rows visible to the view's snapshot. Zero-copy when the
// whole captured prefix is visible; otherwise gathered once and memoized.
func (rv *RelView) Rows() []datum.Row {
	if rv.cap.all {
		return rv.cap.rows[:rv.cap.n:rv.cap.n]
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if !rv.rowsDone {
		rv.visRows = rv.cap.visibleRows(rv.snap)
		rv.rowsDone = true
	}
	return rv.visRows
}

// Vec returns the zero-copy columnar capture, the aligned row slice, the
// visibility selection (nil when every version in [0, N) is visible), and
// the intern table the ID columns resolve through.
func (rv *RelView) Vec() (vec.Table, []datum.Row, []int32, *vec.Intern) {
	t := vec.Table{N: rv.cap.n, Cols: rv.cap.cols}
	if rv.cap.all {
		return t, rv.cap.rows, nil, rv.cap.tab
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	if !rv.visDone {
		rv.vis = rv.cap.visibleSel(rv.snap)
		rv.visDone = true
	}
	return t, rv.cap.rows, rv.vis, rv.cap.tab
}

// Intern returns the intern table captured with the relation.
func (rv *RelView) Intern() *vec.Intern { return rv.cap.tab }

// Lookup probes the relation's index, filtered to the view's snapshot. The
// boolean reports whether an index over exactly cols was available.
func (rv *RelView) Lookup(cols []int, key datum.Row) ([]datum.Row, bool) {
	return rv.rel.LookupSnap(cols, key, rv.snap)
}

// LookupInto is Lookup appending the matches to dst (pass a reused buffer's
// [:0]): the join pipeline's per-outer-row probe, allocation-free once the
// buffer has grown to the largest bucket.
func (rv *RelView) LookupInto(cols []int, key datum.Row, dst []datum.Row) ([]datum.Row, bool) {
	return rv.rel.lookupInto(cols, key, rv.snap, dst)
}

// HasIndex reports whether the captured index generation has an index over
// exactly cols, so LookupIDs can serve it.
func (rv *RelView) HasIndex(cols []int) bool {
	return findIndexIn(rv.cap.indexes, cols) != nil
}

// LookupIDs is Lookup returning positions instead of rows: it appends to dst
// the positions, into the arrays Vec returns, of the captured versions whose
// indexed columns equal key and that the view's snapshot sees, in ascending
// order — the order Lookup returns their rows in. It probes the index
// generation captured with the arrays, never the live one: after a vacuum
// the live index holds positions into the new arrays. Versions appended
// after the capture are skipped. The boolean reports whether the captured
// generation has an index over exactly cols.
func (rv *RelView) LookupIDs(cols []int, key datum.Row, dst []int32) ([]int32, bool) {
	c := &rv.cap
	idx := findIndexIn(c.indexes, cols)
	if idx == nil {
		return dst, false
	}
	r := rv.rel
	r.mu.RLock() // appends still write into a generation that is live
	defer r.mu.RUnlock()
	positions, ok := idx.probe(cols, key)
	for _, pos := range positions {
		if pos >= c.n {
			break // bucket positions ascend; the rest came after the capture
		}
		if c.all || rv.snap.Visible(atomic.LoadUint64(&c.begins[pos]), atomic.LoadUint64(&c.ends[pos])) {
			dst = append(dst, int32(pos))
		}
	}
	return dst, ok
}
