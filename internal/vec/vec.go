// Package vec is the columnar execution substrate of the streaming
// executor: typed column vectors with null masks, an engine-wide string
// intern table, selection vectors, and fixed-width composite hash keys.
//
// The row representation the executor inherited from the box-at-a-time
// evaluator moves ~48-byte boxed datum.D values one row at a time and hashes
// variable-width AppendKey encodings per row. The types here let the hot
// scan/filter/hash-join loops run over contiguous typed slices instead:
// string values are interned to dense uint32 ids at ingest, so equality and
// hashing become integer compares, and composite join keys normalize to at
// most four 64-bit words — a comparable Go map key with no byte-slice
// encoding at all.
//
// Null masks are []bool rather than packed bitmaps on purpose: the storage
// layer exposes zero-copy column snapshots under the same append-only
// contract as Relation.Rows (rows visible through a snapshot never change),
// and a packed bitmap would share its last word between a reader's snapshot
// and a writer appending bits — a real data race a byte mask cannot have.
package vec

import (
	"math"
	"sync"
	"sync/atomic"

	"starmagic/internal/datum"
)

// Intern is a concurrent, append-only string intern table. Ids are dense,
// stable for the table's lifetime, and never reused; the table only grows.
// The engine owns one table per store (catalog lifetime — it survives
// catalog epoch bumps, so plans cached across mutations keep valid ids).
//
// NULLs are never interned — null-ness travels in the column null mask — so
// the empty string gets an ordinary id and stays distinct from NULL.
type Intern struct {
	mu   sync.RWMutex
	ids  map[string]uint32
	strs []string

	bytes  atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// NewIntern returns an empty intern table.
func NewIntern() *Intern {
	return &Intern{ids: make(map[string]uint32)}
}

// Intern returns the id of s, inserting it if absent. Safe for concurrent
// use; the common repeated-string case takes only the read lock.
func (t *Intern) Intern(s string) uint32 {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
		return id
	}
	t.mu.Lock()
	if id, ok = t.ids[s]; ok {
		t.mu.Unlock()
		t.hits.Add(1)
		return id
	}
	id = uint32(len(t.strs))
	t.strs = append(t.strs, s)
	t.ids[s] = id
	t.mu.Unlock()
	t.misses.Add(1)
	t.bytes.Add(int64(len(s)) + 16)
	return id
}

// Lookup returns the id of s without inserting. Probe-side values (query
// literals, parameters) resolve through Lookup so ad-hoc queries cannot grow
// the table: a miss means no stored string equals s, so an equality probe
// can never match.
func (t *Intern) Lookup(s string) (uint32, bool) {
	t.mu.RLock()
	id, ok := t.ids[s]
	t.mu.RUnlock()
	if ok {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
	return id, ok
}

// Str returns the string for an id.
func (t *Intern) Str(id uint32) string {
	t.mu.RLock()
	s := t.strs[id]
	t.mu.RUnlock()
	return s
}

// Strs returns a snapshot of the id→string mapping. The slice is append-only
// shared storage: entries [0, len) never change, so the snapshot resolves
// every id that existed when it was taken without further locking.
func (t *Intern) Strs() []string {
	t.mu.RLock()
	s := t.strs
	t.mu.RUnlock()
	return s
}

// InternStats is a point-in-time summary of the table.
type InternStats struct {
	// Strings is the number of distinct interned strings; Bytes approximates
	// their resident footprint (payload plus map overhead).
	Strings int64 `json:"strings"`
	Bytes   int64 `json:"bytes"`
	// Hits and Misses count Intern/Lookup calls that did and did not find the
	// string already present.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// Stats returns the table's current counters.
func (t *Intern) Stats() InternStats {
	t.mu.RLock()
	n := int64(len(t.strs))
	t.mu.RUnlock()
	return InternStats{
		Strings: n,
		Bytes:   t.bytes.Load(),
		Hits:    t.hits.Load(),
		Misses:  t.misses.Load(),
	}
}

// Col is one typed column vector. Exactly one of the value slices is
// populated, per T; Nulls marks NULL positions (the value slot of a NULL row
// is the zero value). Strings are stored as intern ids.
type Col struct {
	T     datum.Type
	Nulls []bool
	I64   []int64
	F64   []float64
	Bs    []bool
	IDs   []uint32
}

// NewCol returns an empty column of type t.
func NewCol(t datum.Type) Col { return Col{T: t} }

// Append adds d (already validated/widened to the column's type) to the
// column, interning strings through tab.
func (c *Col) Append(d datum.D, tab *Intern) {
	null := d.IsNull()
	c.Nulls = append(c.Nulls, null)
	switch c.T {
	case datum.TInt:
		var v int64
		if !null {
			v = d.I
		}
		c.I64 = append(c.I64, v)
	case datum.TFloat:
		var v float64
		if !null {
			v = d.F
		}
		c.F64 = append(c.F64, v)
	case datum.TBool:
		var v bool
		if !null {
			v = d.B
		}
		c.Bs = append(c.Bs, v)
	case datum.TString:
		var id uint32
		if !null {
			id = tab.Intern(d.S)
		}
		c.IDs = append(c.IDs, id)
	}
}

// Len returns the number of values appended.
func (c *Col) Len() int { return len(c.Nulls) }

// Table is a columnar view over a set of rows: N rows across Cols columns.
// Snapshots handed out by the storage layer share the underlying append-only
// slices; rows [0, N) are immutable through the snapshot.
type Table struct {
	N    int
	Cols []Col
}

// Sel is a selection vector: indices of surviving rows, ascending.
type Sel = []int32

// NormNum normalizes a numeric value for fixed-width keying: float64 bits
// with -0.0 folded into +0.0, so INT 3, FLOAT 3.0, and -0.0/+0.0 key alike —
// exactly the equivalence classes of datum.AppendKey's numeric encoding.
func NormNum(f float64) uint64 { return math.Float64bits(f + 0) }

// NormBool normalizes a boolean for fixed-width keying.
func NormBool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// NormDatum normalizes one non-NULL datum to its 64-bit key word. Strings
// resolve through Lookup — the second result is false when the string is not
// interned, in which case no stored value can equal it.
func NormDatum(d datum.D, tab *Intern) (uint64, bool) {
	switch d.T {
	case datum.TInt:
		return NormNum(float64(d.I)), true
	case datum.TFloat:
		return NormNum(d.F), true
	case datum.TBool:
		return NormBool(d.B), true
	case datum.TString:
		id, ok := tab.Lookup(d.S)
		return uint64(id), ok
	}
	return 0, false
}

// Key is a fixed-width composite equi-join key of up to MaxKeyCols
// normalized words. Positions beyond the key's arity stay zero. NULL key
// components never form a Key — SQL equality never matches NULL, so rows
// with NULL keys are skipped on both build and probe sides.
//
// No type tags are needed: the planner only pairs comparable key columns
// (numeric with numeric, string with string, boolean with boolean), so each
// position's 64-bit word is drawn from one class on both sides.
type Key struct {
	V [4]uint64
}

// MaxKeyCols is the widest composite key Key can hold; wider keys fall back
// to the AppendKey byte encoding.
const MaxKeyCols = 4

// RowKey is a fixed-width group key: normalized words plus a null mask (SQL
// groups NULLs together, so NULL participates in the key rather than
// vetoing it). A key position's columns are statically of one class, so no
// type tags are kept.
type RowKey struct {
	V     [4]uint64
	Nulls uint8
	N     uint8
}
