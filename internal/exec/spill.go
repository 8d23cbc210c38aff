// Spill-to-disk state for budget-governed execution. When an Evaluator has a
// memory Budget (ev.Mem != nil), every pipeline-breaker structure — join hash
// tables, DISTINCT/GROUP-BY state, set-operation counts, sort buffers,
// fixpoint seen-sets, nested-loop inners — is backed by one of the containers
// here instead of a plain map or slice:
//
//	pagedTable  — a 64-way partitioned hash table. Inserts charge the
//	              operator's Account; when a charge is denied the largest
//	              resident partition is snapshotted to a spill file (grace-
//	              hash style) and its reservation released. Probing a paged-
//	              out partition pages it back in, evicting others as needed.
//	extSorter   — external merge sort: the input buffer is charged per row;
//	              on denial the buffer is stably sorted and written as a run,
//	              and finished runs are k-way merged with ties broken by run
//	              index, reproducing sort.SliceStable's order exactly.
//	rowBuffer   — an append-only replayable row list (nested-loop inners):
//	              on denial the resident rows are appended to a spill file,
//	              so iteration order is file prefix + resident suffix.
//
// Spill files hold rows in the lossless datum codec (AppendEncodedRow), not
// the lossy AppendKey form, so paged-in values round-trip exactly. All
// containers degrade to plain in-memory maps with zero extra allocation when
// the evaluator has no budget.
package exec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"starmagic/internal/datum"
	"starmagic/internal/qgm"
	"starmagic/internal/resource"
)

// spillParts is the partition fan-out of pagedTable. The irreducible
// resident working set of a paged operation is one partition, so a finer
// fan-out lets the table squeeze into smaller budgets (1/64th of the table
// per partition) while the per-partition header overhead stays negligible.
const spillParts = 64

// keyMemBytes estimates the resident cost of one interned map key.
func keyMemBytes(n int) int64 { return 16 + int64(n) }

// spillable is a container that can surrender resident state under another
// operator's memory pressure.
type spillable interface {
	// reclaimOne pages out the container's largest resident partition and
	// surrenders idle reservation, returning roughly how many budget bytes
	// were freed (0 when there is nothing left to give).
	reclaimOne() (int64, error)
}

// reclaimSpace is the cross-operator graceful-degradation path: when one
// container's own evictions cannot satisfy a reservation, resident state of
// the evaluator's other containers is paged out, largest-first one container
// at a time. Returns true when any budget bytes were freed (the caller
// retries its reservation).
func (ev *Evaluator) reclaimSpace(except spillable) (bool, error) {
	for _, s := range ev.spillables {
		if s == except {
			continue
		}
		freed, err := s.reclaimOne()
		if err != nil {
			return false, err
		}
		if freed > 0 {
			return true, nil
		}
	}
	return false, nil
}

// partOf hashes a key to its partition (FNV-1a).
func partOf(key []byte) int {
	h := uint32(2166136261)
	for _, b := range key {
		h ^= uint32(b)
		h *= 16777619
	}
	return int(h & (spillParts - 1))
}

// recordWriter frames length-prefixed records into a budget-owned spill file.
type recordWriter struct {
	sf    *resource.SpillFile
	w     *bufio.Writer
	bytes int64
}

func newRecordWriter(bud *resource.Budget, label string) (*recordWriter, error) {
	sf, err := bud.TempFile(label)
	if err != nil {
		return nil, err
	}
	return &recordWriter{sf: sf, w: bufio.NewWriter(sf.File())}, nil
}

func (rw *recordWriter) write(rec []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(rec)))
	if _, err := rw.w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := rw.w.Write(rec); err != nil {
		return err
	}
	rw.bytes += int64(n + len(rec))
	return nil
}

func (rw *recordWriter) flush() error { return rw.w.Flush() }

// recordReader iterates a spill file's records from the start. The returned
// slice is reused across calls.
type recordReader struct {
	r   *bufio.Reader
	buf []byte
}

func newRecordReader(sf *resource.SpillFile) (*recordReader, error) {
	if _, err := sf.File().Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	return &recordReader{r: bufio.NewReader(sf.File())}, nil
}

// next returns the next record or io.EOF.
func (rr *recordReader) next() ([]byte, error) {
	n, err := binary.ReadUvarint(rr.r)
	if err != nil {
		return nil, err
	}
	if uint64(cap(rr.buf)) < n {
		rr.buf = make([]byte, n)
	}
	rr.buf = rr.buf[:n]
	if _, err := io.ReadFull(rr.r, rr.buf); err != nil {
		return nil, fmt.Errorf("exec: truncated spill record: %w", err)
	}
	return rr.buf, nil
}

// valCodec serializes a pagedTable's values into spill records.
type valCodec[V any] struct {
	encode func(buf []byte, v V) []byte
	decode func(buf []byte) (V, []byte, error)
	size   func(v V) int64
}

type tablePart[V any] struct {
	mem    map[string]V
	bytes  int64
	file   *resource.SpillFile
	onDisk bool // file holds the authoritative snapshot; mem is nil
}

// pagedTable is the partitioned, spillable hash table described in the
// package comment. Keys are the AppendKey encodings the in-memory paths
// already use (values carry the lossless payload). Not safe for concurrent
// use; each operator owns its own.
type pagedTable[V any] struct {
	ev      *Evaluator
	bud     *resource.Budget
	acct    *resource.Account
	cod     valCodec[V]
	parts   [spillParts]tablePart[V]
	onSpill func(int64)
	label   string
}

func newPagedTable[V any](ev *Evaluator, label string, cod valCodec[V], onSpill func(int64)) *pagedTable[V] {
	pt := &pagedTable[V]{ev: ev, bud: ev.Mem, acct: ev.Mem.OpenAccount(), cod: cod, onSpill: onSpill, label: label}
	for i := range pt.parts {
		pt.parts[i].mem = map[string]V{}
	}
	ev.spillables = append(ev.spillables, pt)
	return pt
}

// reclaimOne implements spillable: surrender the largest resident partition
// and any idle reservation to relieve another operator's pressure.
func (pt *pagedTable[V]) reclaimOne() (int64, error) {
	var freed int64
	if victim := pt.largestResident(nil); victim != nil {
		freed += victim.bytes
		if err := pt.pageOut(victim); err != nil {
			return 0, err
		}
	}
	freed += pt.acct.ReleaseIdle()
	return freed, nil
}

func (pt *pagedTable[V]) get(key []byte) (V, bool, error) {
	p := &pt.parts[partOf(key)]
	if err := pt.ensureResident(p); err != nil {
		var zero V
		return zero, false, err
	}
	v, ok := p.mem[string(key)]
	return v, ok, nil
}

// put inserts or replaces key's value, charging the size delta.
func (pt *pagedTable[V]) put(key []byte, v V) error {
	p := &pt.parts[partOf(key)]
	if err := pt.ensureResident(p); err != nil {
		return err
	}
	delta := pt.cod.size(v)
	if old, ok := p.mem[string(key)]; ok {
		delta -= pt.cod.size(old)
	} else {
		delta += keyMemBytes(len(key))
	}
	switch {
	case delta > 0:
		if err := pt.grow(p, delta); err != nil {
			return err
		}
	case delta < 0:
		pt.acct.Shrink(-delta)
	}
	p.mem[string(key)] = v
	p.bytes += delta
	return nil
}

// recharge adjusts the charged size of key's partition after an in-place
// mutation of a pointer-valued entry (the generic put cannot see the delta:
// old and new are the same pointer). The partition must be resident — the
// caller just fetched the entry.
func (pt *pagedTable[V]) recharge(key []byte, delta int64) error {
	p := &pt.parts[partOf(key)]
	switch {
	case delta > 0:
		if err := pt.grow(p, delta); err != nil {
			return err
		}
	case delta < 0:
		pt.acct.Shrink(-delta)
	}
	p.bytes += delta
	return nil
}

// grow charges n to the account, paging other resident partitions out to
// disk until the charge fits — the graceful-degradation path. When the
// table's own evictions are exhausted, other containers' resident state is
// reclaimed (reclaimSpace); only when nothing anywhere can be freed does
// ErrMemoryExceeded surface: the query's irreducible working set (one
// partition per live operator) does not fit the budget.
func (pt *pagedTable[V]) grow(keep *tablePart[V], n int64) error {
	for {
		err := pt.acct.Grow(n)
		if err == nil {
			return nil
		}
		if victim := pt.largestResident(keep); victim != nil {
			if e := pt.pageOut(victim); e != nil {
				return e
			}
			continue
		}
		freed, rerr := pt.ev.reclaimSpace(pt)
		if rerr != nil {
			return rerr
		}
		if !freed {
			return fmt.Errorf("%s state: %w", pt.label, err)
		}
	}
}

func (pt *pagedTable[V]) largestResident(keep *tablePart[V]) *tablePart[V] {
	var best *tablePart[V]
	for i := range pt.parts {
		p := &pt.parts[i]
		if p == keep || p.onDisk || len(p.mem) == 0 {
			continue
		}
		if best == nil || p.bytes > best.bytes {
			best = p
		}
	}
	return best
}

// pageOut snapshots a partition to a fresh spill file and releases its
// reservation. Rewriting the full snapshot (rather than appending deltas)
// uniformly handles mutated entries — set-op count decrements, join buckets
// that grew since the last spill.
func (pt *pagedTable[V]) pageOut(p *tablePart[V]) error {
	rw, err := newRecordWriter(pt.bud, pt.label)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, 256)
	for k, v := range p.mem {
		buf = binary.AppendUvarint(buf[:0], uint64(len(k)))
		buf = append(buf, k...)
		buf = pt.cod.encode(buf, v)
		if err := rw.write(buf); err != nil {
			rw.sf.Close()
			return err
		}
	}
	if err := rw.flush(); err != nil {
		rw.sf.Close()
		return err
	}
	if p.file != nil {
		p.file.Close()
	}
	p.file = rw.sf
	p.onDisk = true
	p.mem = nil
	pt.acct.Shrink(p.bytes)
	p.bytes = 0
	pt.bud.NoteSpill(rw.bytes)
	if pt.onSpill != nil {
		pt.onSpill(rw.bytes)
	}
	return nil
}

// ensureResident pages a spilled partition back in, charging (and possibly
// evicting others) entry by entry.
func (pt *pagedTable[V]) ensureResident(p *tablePart[V]) error {
	if !p.onDisk {
		return nil
	}
	rr, err := newRecordReader(p.file)
	if err != nil {
		return err
	}
	p.mem = map[string]V{}
	p.bytes = 0
	p.onDisk = false
	for {
		rec, err := rr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		klen, m := binary.Uvarint(rec)
		if m <= 0 || uint64(len(rec)-m) < klen {
			return fmt.Errorf("exec: corrupt spill partition %q", pt.label)
		}
		key := string(rec[m : m+int(klen)])
		v, _, err := pt.cod.decode(rec[m+int(klen):])
		if err != nil {
			return err
		}
		delta := keyMemBytes(len(key)) + pt.cod.size(v)
		if err := pt.grow(p, delta); err != nil {
			return err
		}
		p.mem[key] = v
		p.bytes += delta
	}
	p.file.Close()
	p.file = nil
	return nil
}

// spilled reports whether any partition currently lives on disk.
func (pt *pagedTable[V]) spilled() bool {
	for i := range pt.parts {
		if pt.parts[i].onDisk {
			return true
		}
	}
	return false
}

// residentPart pages partition i in and returns its entry map. The map stays
// resident as long as the caller charges nothing against the budget; any
// charge may evict it (pageOut nils the partition's map, so the returned
// reference keeps working but its reservation is gone — callers must not
// rely on that).
func (pt *pagedTable[V]) residentPart(i int) (map[string]V, error) {
	p := &pt.parts[i]
	if err := pt.ensureResident(p); err != nil {
		return nil, err
	}
	return p.mem, nil
}

// each visits every entry, paging partitions in one at a time. Order is
// unspecified; callers needing an order carry a sequence number in V.
func (pt *pagedTable[V]) each(f func(key string, v V) error) error {
	for i := range pt.parts {
		p := &pt.parts[i]
		if err := pt.ensureResident(p); err != nil {
			return err
		}
		for k, v := range p.mem {
			if err := f(k, v); err != nil {
				return err
			}
		}
	}
	return nil
}

func (pt *pagedTable[V]) close() {
	for i := range pt.parts {
		p := &pt.parts[i]
		if p.file != nil {
			p.file.Close()
			p.file = nil
		}
		p.mem = nil
	}
	pt.acct.Close()
	for i, s := range pt.ev.spillables {
		if s == spillable(pt) {
			pt.ev.spillables = append(pt.ev.spillables[:i], pt.ev.spillables[i+1:]...)
			break
		}
	}
}

func unitCodec() valCodec[struct{}] {
	return valCodec[struct{}]{
		encode: func(buf []byte, _ struct{}) []byte { return buf },
		decode: func(buf []byte) (struct{}, []byte, error) { return struct{}{}, buf, nil },
		size:   func(struct{}) int64 { return 0 },
	}
}

func countCodec() valCodec[int64] {
	return valCodec[int64]{
		encode: func(buf []byte, v int64) []byte { return binary.AppendVarint(buf, v) },
		decode: func(buf []byte) (int64, []byte, error) {
			v, n := binary.Varint(buf)
			if n <= 0 {
				return 0, nil, fmt.Errorf("exec: corrupt spill count")
			}
			return v, buf[n:], nil
		},
		size: func(int64) int64 { return 8 },
	}
}

// seenSet is a membership set: a plain map without a budget, a
// pagedTable[struct{}] under one. Used by DISTINCT, dedupe, set-operation
// seen state, and the fixpoint delta test.
type seenSet struct {
	m  map[string]bool
	pt *pagedTable[struct{}]
}

func (ev *Evaluator) newSeenSet(label string, onSpill func(int64)) *seenSet {
	if ev.Mem == nil {
		return &seenSet{m: map[string]bool{}}
	}
	return &seenSet{pt: newPagedTable(ev, label, unitCodec(), onSpill)}
}

// checkAndAdd reports whether key was already present, inserting it if not.
func (s *seenSet) checkAndAdd(key []byte) (bool, error) {
	if s.pt == nil {
		if s.m[string(key)] {
			return true, nil
		}
		s.m[string(key)] = true
		return false, nil
	}
	_, ok, err := s.pt.get(key)
	if err != nil || ok {
		return ok, err
	}
	return false, s.pt.put(key, struct{}{})
}

func (s *seenSet) close() {
	if s.pt != nil {
		s.pt.close()
	}
	s.m = nil
}

// countTable is a multiset: row-key → multiplicity (INTERSECT/EXCEPT right
// inputs).
type countTable struct {
	m  map[string]int
	pt *pagedTable[int64]
}

func (ev *Evaluator) newCountTable(label string, onSpill func(int64)) *countTable {
	if ev.Mem == nil {
		return &countTable{m: map[string]int{}}
	}
	return &countTable{pt: newPagedTable(ev, label, countCodec(), onSpill)}
}

func (c *countTable) inc(key []byte) error {
	if c.pt == nil {
		c.m[string(key)]++
		return nil
	}
	v, _, err := c.pt.get(key)
	if err != nil {
		return err
	}
	return c.pt.put(key, v+1)
}

func (c *countTable) count(key []byte) (int, error) {
	if c.pt == nil {
		return c.m[string(key)], nil
	}
	v, _, err := c.pt.get(key)
	return int(v), err
}

func (c *countTable) dec(key []byte) error {
	if c.pt == nil {
		c.m[string(key)]--
		return nil
	}
	v, _, err := c.pt.get(key)
	if err != nil {
		return err
	}
	return c.pt.put(key, v-1)
}

func (c *countTable) close() {
	if c.pt != nil {
		c.pt.close()
	}
	c.m = nil
}

// rowBucket is one join hash bucket. Build-side rows append in arrival
// order and the codec preserves slice order, so probe results — and
// therefore join output order — are identical with and without spilling.
type rowBucket struct {
	rows    []datum.Row
	memSize int64
}

func bucketCodec() valCodec[*rowBucket] {
	return valCodec[*rowBucket]{
		encode: func(buf []byte, b *rowBucket) []byte {
			buf = binary.AppendUvarint(buf, uint64(len(b.rows)))
			for _, r := range b.rows {
				buf = datum.AppendEncodedRow(buf, r)
			}
			return buf
		},
		decode: func(buf []byte) (*rowBucket, []byte, error) {
			n, m := binary.Uvarint(buf)
			if m <= 0 {
				return nil, nil, fmt.Errorf("exec: corrupt spill bucket")
			}
			buf = buf[m:]
			b := &rowBucket{rows: make([]datum.Row, n), memSize: 48}
			for i := range b.rows {
				var err error
				b.rows[i], buf, err = datum.DecodeRow(buf)
				if err != nil {
					return nil, nil, err
				}
				b.memSize += datum.RowMemBytes(b.rows[i])
			}
			return b, buf, nil
		},
		size: func(b *rowBucket) int64 { return b.memSize },
	}
}

// spillJoin is the grace-style spillable join hash table.
type spillJoin struct {
	pt *pagedTable[*rowBucket]
}

func (ev *Evaluator) newSpillJoin(onSpill func(int64)) *spillJoin {
	return &spillJoin{pt: newPagedTable(ev, "hashjoin", bucketCodec(), onSpill)}
}

func (sj *spillJoin) add(key []byte, row datum.Row) error {
	b, ok, err := sj.pt.get(key)
	if err != nil {
		return err
	}
	if !ok {
		b = &rowBucket{rows: []datum.Row{row}, memSize: 48 + datum.RowMemBytes(row)}
		return sj.pt.put(key, b)
	}
	b.rows = append(b.rows, row)
	d := datum.RowMemBytes(row)
	b.memSize += d
	return sj.pt.recharge(key, d)
}

func (sj *spillJoin) probe(key []byte) ([]datum.Row, error) {
	b, ok, err := sj.pt.get(key)
	if err != nil || !ok {
		return nil, err
	}
	return b.rows, nil
}

func (sj *spillJoin) close() { sj.pt.close() }

// spilled reports whether the build left any partition on disk (the trigger
// for a partition-wise grace probe, see grace.go).
func (sj *spillJoin) spilled() bool { return sj.pt.spilled() }

// partition pages build partition i in and returns its buckets.
func (sj *spillJoin) partition(i int) (map[string]*rowBucket, error) {
	return sj.pt.residentPart(i)
}

// groupEntry is one group's aggregate state. memSize caches the charged
// resident size; callers adjust it (and recharge) when distinct-sets grow.
type groupEntry struct {
	seq      uint64
	key      datum.Row
	states   []*datum.AggState
	distinct []map[string]bool
	memSize  int64
}

func newGroupEntry(key datum.Row, aggs []qgm.AggSpec) *groupEntry {
	e := &groupEntry{
		key:      key,
		states:   make([]*datum.AggState, len(aggs)),
		distinct: make([]map[string]bool, len(aggs)),
	}
	states := make([]datum.AggState, len(aggs))
	for i, a := range aggs {
		states[i].Kind = a.Kind
		e.states[i] = &states[i]
		if a.Distinct {
			e.distinct[i] = map[string]bool{}
		}
	}
	e.memSize = 96 + datum.RowMemBytes(key) + 64*int64(len(e.states))
	return e
}

func groupCodec() valCodec[*groupEntry] {
	return valCodec[*groupEntry]{
		encode: func(buf []byte, e *groupEntry) []byte {
			buf = binary.AppendUvarint(buf, e.seq)
			buf = datum.AppendEncodedRow(buf, e.key)
			buf = binary.AppendUvarint(buf, uint64(len(e.states)))
			for _, st := range e.states {
				buf = st.AppendEncoded(buf)
			}
			for _, set := range e.distinct {
				if set == nil {
					buf = append(buf, 0)
					continue
				}
				buf = append(buf, 1)
				buf = binary.AppendUvarint(buf, uint64(len(set)))
				for k := range set {
					buf = binary.AppendUvarint(buf, uint64(len(k)))
					buf = append(buf, k...)
				}
			}
			return buf
		},
		decode: func(buf []byte) (*groupEntry, []byte, error) {
			e := &groupEntry{}
			var m int
			e.seq, m = binary.Uvarint(buf)
			if m <= 0 {
				return nil, nil, fmt.Errorf("exec: corrupt spill group")
			}
			buf = buf[m:]
			var err error
			e.key, buf, err = datum.DecodeRow(buf)
			if err != nil {
				return nil, nil, err
			}
			n, m := binary.Uvarint(buf)
			if m <= 0 {
				return nil, nil, fmt.Errorf("exec: corrupt spill group")
			}
			buf = buf[m:]
			e.states = make([]*datum.AggState, n)
			for i := range e.states {
				e.states[i], buf, err = datum.DecodeAggState(buf)
				if err != nil {
					return nil, nil, err
				}
			}
			e.distinct = make([]map[string]bool, n)
			e.memSize = 96 + datum.RowMemBytes(e.key) + 64*int64(n)
			for i := range e.distinct {
				if len(buf) == 0 {
					return nil, nil, fmt.Errorf("exec: corrupt spill group")
				}
				present := buf[0] != 0
				buf = buf[1:]
				if !present {
					continue
				}
				cnt, m := binary.Uvarint(buf)
				if m <= 0 {
					return nil, nil, fmt.Errorf("exec: corrupt spill group")
				}
				buf = buf[m:]
				set := make(map[string]bool, cnt)
				for j := uint64(0); j < cnt; j++ {
					klen, m := binary.Uvarint(buf)
					if m <= 0 || uint64(len(buf)-m) < klen {
						return nil, nil, fmt.Errorf("exec: corrupt spill group")
					}
					k := string(buf[m : m+int(klen)])
					buf = buf[m+int(klen):]
					set[k] = true
					e.memSize += 24 + int64(len(k))
				}
				e.distinct[i] = set
			}
			return e, buf, nil
		},
		size: func(e *groupEntry) int64 { return e.memSize },
	}
}

// groupTable holds GROUP-BY state. Entries carry an insertion sequence
// number; emission sorts by it, reproducing the in-memory first-seen group
// order even after partitions spilled and paged back in hash order.
type groupTable struct {
	m     map[string]*groupEntry
	order []string
	pt    *pagedTable[*groupEntry]
	next  uint64
	count int
	// key and vals are accumulateGroup's per-row scratch: the evaluated group
	// key and aggregate arguments.
	key  datum.Row
	vals []datum.D
}

func (ev *Evaluator) newGroupTable(label string, onSpill func(int64)) *groupTable {
	if ev.Mem == nil {
		return &groupTable{m: map[string]*groupEntry{}}
	}
	return &groupTable{pt: newPagedTable(ev, label, groupCodec(), onSpill)}
}

func (g *groupTable) lookup(key []byte) (*groupEntry, bool, error) {
	if g.pt == nil {
		e, ok := g.m[string(key)]
		return e, ok, nil
	}
	return g.pt.get(key)
}

func (g *groupTable) insert(key []byte, e *groupEntry) error {
	e.seq = g.next
	g.next++
	g.count++
	if g.pt == nil {
		ks := string(key)
		g.m[ks] = e
		g.order = append(g.order, ks)
		return nil
	}
	return g.pt.put(key, e)
}

// recharge records delta bytes of in-place entry growth (distinct-set adds).
func (g *groupTable) recharge(key []byte, delta int64) error {
	if g.pt == nil {
		return nil
	}
	return g.pt.recharge(key, delta)
}

func (g *groupTable) len() int { return g.count }

// each visits all groups in unspecified order (callers sort by seq).
func (g *groupTable) each(f func(e *groupEntry) error) error {
	if g.pt == nil {
		for _, ks := range g.order {
			if err := f(g.m[ks]); err != nil {
				return err
			}
		}
		return nil
	}
	return g.pt.each(func(_ string, e *groupEntry) error { return f(e) })
}

func (g *groupTable) close() {
	if g.pt != nil {
		g.pt.close()
	}
	g.m, g.order = nil, nil
}

// rowBuffer is an append-only row list that spills its resident suffix when
// the budget denies growth; replay order is spill-file prefix + resident
// suffix, i.e. exactly arrival order. Used for nested-loop inner sides that
// are rescanned once per outer binding.
type rowBuffer struct {
	ev      *Evaluator
	acct    *resource.Account
	onSpill func(int64)
	label   string
	rows    []datum.Row
	rw      *recordWriter
	count   int
	encBuf  []byte
}

func (ev *Evaluator) newRowBuffer(label string, onSpill func(int64)) *rowBuffer {
	return &rowBuffer{ev: ev, acct: ev.Mem.OpenAccount(), onSpill: onSpill, label: label}
}

func (rb *rowBuffer) add(row datum.Row) error {
	n := datum.RowMemBytes(row)
	for {
		err := rb.acct.Grow(n)
		if err == nil {
			break
		}
		if len(rb.rows) > 0 {
			if err := rb.spillResident(); err != nil {
				return err
			}
			continue
		}
		freed, rerr := rb.ev.reclaimSpace(nil)
		if rerr != nil {
			return rerr
		}
		if !freed {
			// A single row exceeds what remains of the whole budget.
			return fmt.Errorf("%s row: %w", rb.label, err)
		}
	}
	rb.rows = append(rb.rows, row)
	rb.count++
	return nil
}

func (rb *rowBuffer) spillResident() error {
	if rb.rw == nil {
		rw, err := newRecordWriter(rb.ev.Mem, rb.label)
		if err != nil {
			return err
		}
		rb.rw = rw
	}
	start := rb.rw.bytes
	for _, r := range rb.rows {
		rb.encBuf = datum.AppendEncodedRow(rb.encBuf[:0], r)
		if err := rb.rw.write(rb.encBuf); err != nil {
			return err
		}
	}
	rb.rows = rb.rows[:0]
	rb.acct.Clear()
	rb.ev.Mem.NoteSpill(rb.rw.bytes - start)
	if rb.onSpill != nil {
		rb.onSpill(rb.rw.bytes - start)
	}
	return nil
}

// freeze moves any resident suffix to the spill file and releases the whole
// reservation: subsequent cursors replay purely from disk. Called before
// building derived state (a hash table) from the buffer so the buffer's
// memory does not compete with the state being built.
func (rb *rowBuffer) freeze() error {
	if len(rb.rows) > 0 {
		if err := rb.spillResident(); err != nil {
			return err
		}
	}
	rb.acct.Clear()
	return nil
}

// cursor starts a replay of the buffer from the beginning. Only valid after
// all adds are done; multiple sequential cursors are allowed.
func (rb *rowBuffer) cursor() (*rowCursor, error) {
	c := &rowCursor{rb: rb}
	if rb.rw != nil {
		if err := rb.rw.flush(); err != nil {
			return nil, err
		}
		rr, err := newRecordReader(rb.rw.sf)
		if err != nil {
			return nil, err
		}
		c.rr = rr
	}
	return c, nil
}

type rowCursor struct {
	rb  *rowBuffer
	rr  *recordReader // nil once the file part is exhausted (or never spilled)
	idx int           // position in the resident suffix
}

// nextBatch returns up to max rows, nil at end. Decoded rows are fresh
// allocations; resident rows are returned as-is.
func (c *rowCursor) nextBatch(max int) ([]datum.Row, error) {
	var out []datum.Row
	for c.rr != nil && len(out) < max {
		rec, err := c.rr.next()
		if err == io.EOF {
			c.rr = nil
			break
		}
		if err != nil {
			return nil, err
		}
		row, _, err := datum.DecodeRow(rec)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
	}
	for c.idx < len(c.rb.rows) && len(out) < max {
		out = append(out, c.rb.rows[c.idx])
		c.idx++
	}
	return out, nil
}

func (rb *rowBuffer) close() {
	if rb.rw != nil {
		rb.rw.sf.Close()
		rb.rw = nil
	}
	rb.rows = nil
	rb.acct.Close()
}

// extSorter is the external merge sort. Rows accumulate in a charged buffer;
// when the budget denies growth (or the buffer passes the eager threshold,
// set when Lower's EstMem estimate already exceeds the budget) the buffer is
// stably sorted and flushed as a run. finish() merges the runs plus the
// final buffer k-way, breaking comparator ties by run index — earlier runs
// hold earlier arrivals, so the merged order equals sort.SliceStable over
// the full input.
type extSorter struct {
	ev      *Evaluator
	acct    *resource.Account
	specs   []qgm.OrderSpec
	onSpill func(int64)

	// eager caps resident bytes before a proactive run flush (0 = flush
	// only on budget denial).
	eager    int64
	resBytes int64

	rows   []datum.Row
	runs   []*resource.SpillFile
	encBuf []byte

	// merge state
	readers []*recordReader
	heads   []datum.Row // heads[i] is the next row of run i; nil = exhausted
	memIdx  int         // position in the final in-memory run (index len(runs))
	merged  bool
	pos     int // in-memory-only emission position
}

func (ev *Evaluator) newExtSorter(specs []qgm.OrderSpec, onSpill func(int64)) *extSorter {
	return &extSorter{ev: ev, acct: ev.Mem.OpenAccount(), specs: specs, onSpill: onSpill}
}

func (s *extSorter) less(a, b datum.Row) bool {
	for _, spec := range s.specs {
		c := datum.SortCompare(a[spec.Ord], b[spec.Ord])
		if spec.Desc {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return false
}

func (s *extSorter) add(row datum.Row) error {
	n := datum.RowMemBytes(row)
	for {
		err := s.acct.Grow(n)
		if err == nil {
			break
		}
		if len(s.rows) > 0 {
			if err := s.flushRun(); err != nil {
				return err
			}
			continue
		}
		freed, rerr := s.ev.reclaimSpace(nil)
		if rerr != nil {
			return rerr
		}
		if !freed {
			// A single row exceeds what remains of the whole budget.
			return fmt.Errorf("sort row: %w", err)
		}
	}
	s.rows = append(s.rows, row)
	s.resBytes += n
	if s.eager > 0 && s.resBytes >= s.eager {
		return s.flushRun()
	}
	return nil
}

func (s *extSorter) flushRun() error {
	sort.SliceStable(s.rows, func(i, j int) bool { return s.less(s.rows[i], s.rows[j]) })
	rw, err := newRecordWriter(s.ev.Mem, "sort-run")
	if err != nil {
		return err
	}
	for _, r := range s.rows {
		s.encBuf = datum.AppendEncodedRow(s.encBuf[:0], r)
		if err := rw.write(s.encBuf); err != nil {
			rw.sf.Close()
			return err
		}
	}
	if err := rw.flush(); err != nil {
		rw.sf.Close()
		return err
	}
	s.runs = append(s.runs, rw.sf)
	s.rows = s.rows[:0]
	s.resBytes = 0
	s.acct.Clear()
	s.ev.Mem.NoteSpill(rw.bytes)
	if s.onSpill != nil {
		s.onSpill(rw.bytes)
	}
	return nil
}

// finish seals the input and prepares emission.
func (s *extSorter) finish() error {
	sort.SliceStable(s.rows, func(i, j int) bool { return s.less(s.rows[i], s.rows[j]) })
	if len(s.runs) == 0 {
		return nil // pure in-memory sort; next() walks s.rows
	}
	s.readers = make([]*recordReader, len(s.runs))
	s.heads = make([]datum.Row, len(s.runs)+1)
	for i, sf := range s.runs {
		rr, err := newRecordReader(sf)
		if err != nil {
			return err
		}
		s.readers[i] = rr
		if err := s.advanceRun(i); err != nil {
			return err
		}
	}
	s.advanceMem()
	s.merged = true
	return nil
}

func (s *extSorter) advanceRun(i int) error {
	rec, err := s.readers[i].next()
	if err == io.EOF {
		s.heads[i] = nil
		return nil
	}
	if err != nil {
		return err
	}
	row, _, err := datum.DecodeRow(rec)
	if err != nil {
		return err
	}
	s.heads[i] = row
	return nil
}

func (s *extSorter) advanceMem() {
	last := len(s.heads) - 1
	if s.memIdx < len(s.rows) {
		s.heads[last] = s.rows[s.memIdx]
		s.memIdx++
	} else {
		s.heads[last] = nil
	}
}

// next emits up to max merged rows, nil at end.
func (s *extSorter) next(max int) ([]datum.Row, error) {
	if !s.merged {
		if s.pos >= len(s.rows) {
			return nil, nil
		}
		end := s.pos + max
		if end > len(s.rows) {
			end = len(s.rows)
		}
		batch := s.rows[s.pos:end]
		s.pos = end
		return batch, nil
	}
	var out []datum.Row
	for len(out) < max {
		best := -1
		for i, h := range s.heads {
			if h == nil {
				continue
			}
			// Strict less keeps the lowest run index on ties — earlier runs
			// hold earlier arrivals, which is exactly stability.
			if best < 0 || s.less(h, s.heads[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, s.heads[best])
		if best == len(s.heads)-1 {
			s.advanceMem()
		} else if err := s.advanceRun(best); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (s *extSorter) close() {
	for _, sf := range s.runs {
		sf.Close()
	}
	s.runs, s.rows, s.readers, s.heads = nil, nil, nil, nil
	s.acct.Close()
}
