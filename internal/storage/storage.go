// Package storage is the in-memory row store behind base tables, with hash
// indexes for equality lookups. It substitutes for the DB2/Starburst storage
// layer of the paper's testbed: the magic-sets transformation is a
// query-rewrite technique, so any store exposing scans and index lookups
// exercises the same optimized plans.
//
// Relations and the store are safe for concurrent use: reads (scans, index
// probes) share an RWMutex read lock so many evaluators can run at once,
// while Insert serializes behind the write lock. Relations are
// multi-versioned: see mvcc.go for the begin/end stamp protocol, snapshot
// visibility, views, and vacuum.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"starmagic/internal/catalog"
	"starmagic/internal/datum"
	"starmagic/internal/vec"
)

// HashIndex maps equality keys over a column set to row positions. Keys are
// the collision-safe binary encoding of datum.AppendKey.
type HashIndex struct {
	Cols    []int
	buckets map[string][]int
}

// Relation holds the rows of one base table plus its indexes and a
// columnar shadow: one typed vec.Col per column, maintained on the same
// write path as the row store, with string values interned at ingest.
// The shadow is what the vectorized executor scans; the row slice stays
// authoritative for row-at-a-time binding and projection.
type Relation struct {
	Meta *catalog.Table

	mu      sync.RWMutex
	rows    []datum.Row
	begins  []uint64 // version begin stamps; elements accessed atomically
	ends    []uint64 // version end stamps (Live = not deleted)
	cols    []vec.Col
	tab     *vec.Intern
	indexes []*HashIndex
	keyBuf  []byte // reused under mu write lock when indexing inserts

	// dirty counts versions that are not plainly visible: in-flight or
	// aborted begins plus any end stamp != Live. dirty == 0 is the
	// zero-copy fast path: every stored version is committed and live.
	dirty atomic.Int64
	// inflight counts unresolved transaction markers; vacuum skips the
	// relation while any exist, keeping write-set positions stable.
	inflight atomic.Int64
	// maxBegin is the largest committed begin stamp; with dirty == 0 a
	// snapshot at TS >= maxBegin sees exactly the captured prefix.
	maxBegin atomic.Uint64
}

// NewRelation creates an empty relation for the table, building one hash
// index per index declared in the table metadata. Stores created through
// Store.Create share the store's intern table; a directly constructed
// relation gets a private one.
func NewRelation(meta *catalog.Table) *Relation {
	r := &Relation{Meta: meta, tab: vec.NewIntern()}
	r.indexes = newIndexes(meta)
	r.cols = newCols(meta)
	return r
}

func newCols(meta *catalog.Table) []vec.Col {
	cols := make([]vec.Col, len(meta.Columns))
	for i, c := range meta.Columns {
		cols[i] = vec.NewCol(c.Type)
	}
	return cols
}

func newIndexes(meta *catalog.Table) []*HashIndex {
	var idxs []*HashIndex
	for _, cols := range meta.Indexes {
		idxs = append(idxs, &HashIndex{
			Cols:    append([]int(nil), cols...),
			buckets: make(map[string][]int),
		})
	}
	return idxs
}

// Insert appends a row after validating arity and types, stamped as
// committed at timestamp zero (visible to every snapshot). Values of INT
// type inserted into FLOAT columns are widened. Transactional inserts go
// through Append with the writer's transaction id.
func (r *Relation) Insert(row datum.Row) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, err := r.appendLocked(row, 0)
	return err
}

func (r *Relation) appendLocked(row datum.Row, begin uint64) (int, error) {
	if len(row) != len(r.Meta.Columns) {
		return 0, fmt.Errorf("table %s: inserting %d values into %d columns",
			r.Meta.Name, len(row), len(r.Meta.Columns))
	}
	stored := make(datum.Row, len(row))
	for i, d := range row {
		want := r.Meta.Columns[i].Type
		switch {
		case d.IsNull():
			stored[i] = datum.NullOf(want)
		case d.T == want:
			stored[i] = d
		case d.T == datum.TInt && want == datum.TFloat:
			stored[i] = datum.Float(float64(d.I))
		default:
			return 0, fmt.Errorf("table %s column %s: cannot store %s value",
				r.Meta.Name, r.Meta.Columns[i].Name, d.T)
		}
	}
	pos := len(r.rows)
	r.rows = append(r.rows, stored)
	r.begins = append(r.begins, begin)
	r.ends = append(r.ends, Live)
	if begin&TxnIDBit != 0 {
		r.dirty.Add(1)
		r.inflight.Add(1)
	} else {
		maxU64(&r.maxBegin, begin)
	}
	for i, d := range stored {
		r.cols[i].Append(d, r.tab)
	}
	for _, idx := range r.indexes {
		r.keyBuf = datum.AppendKeyOf(r.keyBuf[:0], stored, idx.Cols)
		k := string(r.keyBuf)
		idx.buckets[k] = append(idx.buckets[k], pos)
	}
	return pos, nil
}

// Rows returns the rows visible to a ReadAll snapshot (every committed,
// undeleted version). Callers must not mutate them. When the relation holds
// no dead or in-flight versions this is the zero-copy stable prefix, as
// before MVCC; otherwise it gathers.
func (r *Relation) Rows() []datum.Row {
	c := r.capture(ReadAll, false)
	return c.visibleRows(ReadAll)
}

// Snapshot returns a zero-copy columnar view of the relation together with
// the matching row snapshot. Both share the append-only backing arrays:
// entries [0, N) never change after becoming visible, so the vectorized
// executor scans the column slices directly with no per-scan copy. The
// columnar and row views describe exactly the same N stored versions —
// including dead or uncommitted ones; callers needing snapshot visibility
// go through a View (RelView.Vec carries the visibility selection).
func (r *Relation) Snapshot() (vec.Table, []datum.Row) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t := vec.Table{N: len(r.rows), Cols: make([]vec.Col, len(r.cols))}
	copy(t.Cols, r.cols)
	return t, r.rows
}

// Intern returns the intern table the relation's string columns resolve
// through.
func (r *Relation) Intern() *vec.Intern { return r.tab }

// Len returns the number of rows visible to a ReadAll snapshot.
func (r *Relation) Len() int {
	r.mu.RLock()
	n := len(r.rows)
	dirty := r.dirty.Load()
	r.mu.RUnlock()
	if dirty == 0 {
		return n
	}
	return len(r.Rows())
}

// probeBuf is the reusable scratch of one Lookup call. Lookup runs under
// the shared read lock — concurrent probes from the evaluators of
// concurrent queries are the norm — so the scratch lives in a pool rather than on the relation.
type probeBuf struct {
	probe datum.Row
	key   []byte
}

var probePool = sync.Pool{New: func() any { return &probeBuf{key: make([]byte, 0, 48)} }}

// Lookup returns the rows whose indexed columns equal key, using the index
// over exactly cols if one exists, filtered to a ReadAll snapshot. The
// boolean reports whether an index was available; when false the caller
// must fall back to a scan. The probe itself is allocation-free (pooled
// scratch plus the string(buf) map index); only a non-empty result
// allocates, for the returned slice.
func (r *Relation) Lookup(cols []int, key datum.Row) ([]datum.Row, bool) {
	return r.LookupSnap(cols, key, ReadAll)
}

// probeLocked resolves cols against an index and probes it, returning the
// matching version positions. The second return distinguishes "no index"
// (false) from an empty probe result (true, nil). Caller holds the read
// lock.
func (r *Relation) probeLocked(cols []int, key datum.Row) ([]int, bool) {
	idx := findIndexIn(r.indexes, cols)
	if idx == nil {
		return nil, false
	}
	return idx.probe(cols, key)
}

// probe returns the positions whose indexed columns equal key, given in the
// order of cols; false when cols does not cover idx.Cols. The probe itself
// is allocation-free (pooled scratch plus the string(buf) map index).
// Caller holds the relation's read lock.
func (idx *HashIndex) probe(cols []int, key datum.Row) ([]int, bool) {
	pb := probePool.Get().(*probeBuf)
	defer probePool.Put(pb)
	// The index stores keys in idx.Cols order; reorder the probe key to
	// match when the caller's column order differs.
	pb.probe = pb.probe[:0]
	for _, c := range idx.Cols {
		found := false
		for j, cc := range cols {
			if cc == c {
				pb.probe = append(pb.probe, key[j])
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	// SQL equality never matches NULL.
	for _, d := range pb.probe {
		if d.IsNull() {
			return nil, true
		}
	}
	pb.key = datum.AppendKey(pb.key[:0], pb.probe)
	return idx.buckets[string(pb.key)], true
}

// findIndexIn matches cols against idxs as a set (AddIndex may have added
// an index whose column set duplicates a declared one), without allocating
// (Lookup is the executor's per-outer-row hot path).
func findIndexIn(idxs []*HashIndex, cols []int) *HashIndex {
	for _, idx := range idxs {
		if len(idx.Cols) != len(cols) {
			continue
		}
		match := true
		for _, c := range cols {
			found := false
			for _, ic := range idx.Cols {
				if ic == c {
					found = true
					break
				}
			}
			if !found {
				match = false
				break
			}
		}
		if match {
			return idx
		}
	}
	return nil
}

// Store maps table names to relations. Safe for concurrent use. All
// relations of one store share one intern table, so equal strings in
// different tables carry the same id — which is what lets the executor
// join and compare string columns across tables on ids alone. The table
// has store (catalog) lifetime: it survives catalog epoch bumps, only ever
// grows, and ids stay stable once assigned.
type Store struct {
	mu   sync.RWMutex
	rels map[string]*Relation
	tab  *vec.Intern
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{rels: make(map[string]*Relation), tab: vec.NewIntern()}
}

// Intern returns the store-wide string intern table.
func (s *Store) Intern() *vec.Intern { return s.tab }

// Create allocates storage for a table, sharing the store's intern table.
func (s *Store) Create(meta *catalog.Table) *Relation {
	r := NewRelation(meta)
	r.tab = s.tab
	s.mu.Lock()
	s.rels[lower(meta.Name)] = r
	s.mu.Unlock()
	return r
}

// Relation resolves a relation by table name.
func (s *Store) Relation(name string) (*Relation, bool) {
	s.mu.RLock()
	r, ok := s.rels[lower(name)]
	s.mu.RUnlock()
	return r, ok
}

// Drop releases a table's storage. Dropping an unknown table is a no-op.
func (s *Store) Drop(name string) {
	s.mu.Lock()
	delete(s.rels, lower(name))
	s.mu.Unlock()
}

// compactMinStrings is the intern-table size below which compaction is never
// attempted: rebuild bookkeeping on a small table costs more than the bytes
// it could reclaim.
const compactMinStrings = 1024

// MaybeCompactIntern rebuilds the store-wide string intern table when most
// of it is garbage — strings whose every referencing row was deleted or
// whose table was dropped. The intern table is append-only (ids must stay
// stable while any reader can hold them), so on a long-lived server DELETE
// and DROP TABLE would otherwise grow it without bound; rebuild-on-threshold
// bounds it at 2× the live set.
//
// Compaction walks every relation's string columns to find live ids, and
// fires only when the table holds at least compactMinStrings entries and
// more than half are dead. It re-interns the live strings into a fresh table
// (dense new ids) and rewrites every relation's ID columns onto fresh
// backing arrays, leaving previously taken snapshots consistent with the old
// table they captured.
//
// Compaction is safe against concurrent readers and writers: it holds the
// store lock (excluding new views, whose eager capture needs it) plus every
// relation's write lock for the whole mark→rebuild→swap, so no append can
// intern into the table being retired and no scan can capture a relation
// mid-swap. Mark-live walks every stored version — dead, aborted, and
// uncommitted included — so ids referenced by old versions still visible to
// a live snapshot survive; views captured earlier keep the old table and
// old ID arrays, both of which compaction leaves intact, so running scans
// stay consistent. It reports whether a rebuild happened.
func (s *Store) MaybeCompactIntern() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.tab.Strs()) < compactMinStrings {
		return false
	}
	// Lock every relation for the duration: marking and rewriting must see
	// one frozen id space. Sorted order keeps multi-lock acquisition
	// deterministic.
	names := make([]string, 0, len(s.rels))
	for name := range s.rels {
		names = append(names, name)
	}
	sort.Strings(names)
	rels := make([]*Relation, len(names))
	for i, name := range names {
		rels[i] = s.rels[name]
		rels[i].mu.Lock()
	}
	defer func() {
		for _, r := range rels {
			r.mu.Unlock()
		}
	}()
	// Snapshot the id space only now: an append interns under its relation's
	// lock alone, so a snapshot taken before the locks could miss ids the
	// columns already hold.
	strs := s.tab.Strs()
	total := len(strs)
	live := make([]bool, total)
	nLive := 0
	for _, r := range rels {
		for ci := range r.cols {
			c := &r.cols[ci]
			if c.T != datum.TString {
				continue
			}
			for i, id := range c.IDs {
				if !c.Nulls[i] && !live[id] {
					live[id] = true
					nLive++
				}
			}
		}
	}
	if 2*nLive > total {
		return false
	}
	ntab := vec.NewIntern()
	remap := make([]uint32, total)
	for id, ok := range live {
		if ok {
			remap[id] = ntab.Intern(strs[id])
		}
	}
	for _, r := range rels {
		for ci := range r.cols {
			c := &r.cols[ci]
			if c.T != datum.TString || len(c.IDs) == 0 {
				continue
			}
			nids := make([]uint32, len(c.IDs))
			for i, id := range c.IDs {
				if !c.Nulls[i] {
					nids[i] = remap[id]
				}
			}
			c.IDs = nids
		}
		r.tab = ntab
	}
	s.tab = ntab
	return true
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
