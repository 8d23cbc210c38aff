package vec

import "starmagic/internal/datum"

// Open-addressing tables over the fixed-width keys: GroupTable maps RowKeys
// to dense group ids in first-seen order (hash aggregation), JoinTable maps
// join Keys to ascending chains of build-row ids (hash-join build). Both
// grow by distinct keys, not input rows, so a 20k-row input over a few
// hundred keys stays in a cache-resident table and allocates O(log keys)
// slices — never one per key or per row.

// mix folds one key word into a running hash. Normalized numeric words keep
// their entropy in the high bits (exponent and leading mantissa), so slots
// are taken from the top of the product, where every input bit lands.
func mix(h, w uint64) uint64 {
	h = (h ^ w) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

func (k *RowKey) hash() uint64 {
	h := uint64(k.Tags)<<8 | uint64(k.Nulls)
	for i := 0; i < int(k.N); i++ {
		h = mix(h, k.V[i])
	}
	return h
}

// equal compares field by field: cheaper than the generated struct equality
// (a memequal call) in Find's inner loop. Positions beyond N are zero on
// both sides.
func (k *RowKey) equal(o *RowKey) bool {
	return k.V[0] == o.V[0] && k.V[1] == o.V[1] && k.V[2] == o.V[2] && k.V[3] == o.V[3] &&
		k.Tags == o.Tags && k.Nulls == o.Nulls && k.N == o.N
}

// NormCol writes the normalized key word of c's value at ids[k] to words[k]
// (zero for NULL) and ors bit into nulls[k] where the value is NULL: one
// typed loop per key column instead of a type switch per datum. The columns
// of one key position are statically of one class, so no tags are kept.
func NormCol(c *Col, ids Sel, words []uint64, nulls []uint8, bit uint8) {
	isNull := c.Nulls
	switch c.T {
	case datum.TInt:
		for k, i := range ids {
			words[k] = NormNum(float64(c.I64[i]))
		}
	case datum.TFloat:
		for k, i := range ids {
			words[k] = NormNum(c.F64[i])
		}
	case datum.TString:
		for k, i := range ids {
			words[k] = uint64(c.IDs[i])
		}
	case datum.TBool:
		for k, i := range ids {
			words[k] = NormBool(c.Bs[i])
		}
	}
	for k, i := range ids {
		if isNull[i] {
			words[k] = 0
			nulls[k] |= bit
		}
	}
}

// GroupTable assigns dense group ids to RowKeys in first-seen order.
type GroupTable struct {
	slots []int32 // group id + 1; 0 marks an empty slot
	shift uint
	keys  []RowKey // by group id
}

// NewGroupTable returns an empty table.
func NewGroupTable() *GroupTable {
	return &GroupTable{slots: make([]int32, 64), shift: 64 - 6}
}

// Len returns the number of groups.
func (t *GroupTable) Len() int { return len(t.keys) }

// Find returns k's group id, inserting k as the next id when absent; fresh
// reports an insert.
func (t *GroupTable) Find(k *RowKey) (gid int32, fresh bool) {
	mask := len(t.slots) - 1
	for s := int(k.hash() >> t.shift); ; s = (s + 1) & mask {
		g := t.slots[s]
		if g == 0 {
			t.keys = append(t.keys, *k)
			t.slots[s] = int32(len(t.keys))
			if 2*len(t.keys) > len(t.slots) {
				t.grow()
			}
			return int32(len(t.keys) - 1), true
		}
		if t.keys[g-1].equal(k) {
			return g - 1, false
		}
	}
}

// Assign is Find over a batch of n keys given column-wise — words[j][k] is
// position j of key k (see NormCol), nulls[k] its NULL mask: gids[k] receives
// key k's group id, and the batch positions that created groups are appended
// to fresh in creation order (group ids Len-before, Len-before+1, …).
func (t *GroupTable) Assign(words [][]uint64, nulls []uint8, n int, gids []int32, fresh []int32) []int32 {
	key := RowKey{N: uint8(len(words))}
	for k := 0; k < n; k++ {
		// A run of equal keys (clustered input) resolves without hashing.
		if k > 0 && nulls[k] == nulls[k-1] {
			same := true
			for _, w := range words {
				same = same && w[k] == w[k-1]
			}
			if same {
				gids[k] = gids[k-1]
				continue
			}
		}
		key.Nulls = nulls[k]
		for j, w := range words {
			key.V[j] = w[k]
		}
		g, isNew := t.Find(&key)
		gids[k] = g
		if isNew {
			fresh = append(fresh, int32(k))
		}
	}
	return fresh
}

func (t *GroupTable) grow() {
	t.slots = make([]int32, 2*len(t.slots))
	t.shift--
	mask := len(t.slots) - 1
	for g := range t.keys {
		s := int(t.keys[g].hash() >> t.shift)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(g + 1)
	}
}

// JoinTable is a hash-join build: an open-addressing key → head-row table
// plus one next-row link per build row. Rows are prepended, so a build that
// adds rows in descending id order leaves every chain ascending — the bucket
// order of a slice-per-key build.
type JoinTable struct {
	nk    int
	shift uint
	heads []int32  // slot → first row id of the key's chain; -1 empty
	keys  []uint64 // nk words per slot
	next  []int32  // row id → next row id with the same key; -1 ends the chain
	used  int
}

// NewJoinTable returns an empty table for nk-column keys over build-row ids
// in [0, nrows).
func NewJoinTable(nk, nrows int) *JoinTable {
	t := &JoinTable{nk: nk, shift: 64 - 6, next: make([]int32, nrows)}
	t.alloc(64)
	return t
}

func (t *JoinTable) alloc(slots int) {
	t.heads = make([]int32, slots)
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.keys = make([]uint64, slots*t.nk)
}

func (t *JoinTable) hash(k *Key) uint64 {
	h := uint64(0)
	for i := 0; i < t.nk; i++ {
		h = mix(h, k.V[i])
	}
	return h
}

// slot returns k's slot: the one holding it, or the empty slot it belongs in.
func (t *JoinTable) slot(k *Key) int {
	mask := len(t.heads) - 1
	for s := int(t.hash(k) >> t.shift); ; s = (s + 1) & mask {
		if t.heads[s] < 0 {
			return s
		}
		at := t.keys[s*t.nk : s*t.nk+t.nk]
		eq := true
		for i, w := range at {
			if w != k.V[i] {
				eq = false
				break
			}
		}
		if eq {
			return s
		}
	}
}

// Prepend links row at the front of k's chain and returns the chain's slot
// (valid until the next new key, which may grow the table).
func (t *JoinTable) Prepend(k *Key, row int32) int {
	s := t.slot(k)
	t.next[row] = t.heads[s]
	fresh := t.heads[s] < 0
	t.heads[s] = row
	if fresh {
		copy(t.keys[s*t.nk:s*t.nk+t.nk], k.V[:t.nk])
		if t.used++; 2*t.used > len(t.heads) {
			t.grow()
			return t.slot(k)
		}
	}
	return s
}

func (t *JoinTable) grow() {
	heads, keys := t.heads, t.keys
	t.alloc(2 * len(heads))
	t.shift--
	var k Key
	for s, h := range heads {
		if h < 0 {
			continue
		}
		copy(k.V[:t.nk], keys[s*t.nk:s*t.nk+t.nk])
		d := t.slot(&k)
		copy(t.keys[d*t.nk:d*t.nk+t.nk], k.V[:t.nk])
		t.heads[d] = h
	}
}

// Head returns the first (lowest) build-row id whose key equals k, or -1.
func (t *JoinTable) Head(k *Key) int32 { return t.heads[t.slot(k)] }

// Next returns the build row following row in its chain, or -1.
func (t *JoinTable) Next(row int32) int32 { return t.next[row] }

// joinChunk is how many build rows BuildJoinTable normalizes per kernel
// call.
const joinChunk = 512

// BuildJoinTable builds the join table of a columnar build side keyed on
// cols: rows are the version positions in vis, or [0, n) when vis is nil
// (every version visible). Rows with a NULL key component are left out —
// SQL equality never matches NULL. Key words are normalized a chunk and a
// column at a time, then linked from the last row to the first.
func BuildJoinTable(cols []*Col, n int, vis Sel) *JoinTable {
	t := NewJoinTable(len(cols), n)
	count := n
	if vis != nil {
		count = len(vis)
	}
	words := make([][]uint64, len(cols))
	for j := range words {
		words[j] = make([]uint64, joinChunk)
	}
	nulls := make([]uint8, joinChunk)
	var all Sel
	if vis == nil {
		all = make(Sel, 0, joinChunk)
	}
	var key Key
	last := -1 // slot of the chain key was last prepended to
	for hi := count; hi > 0; hi -= joinChunk {
		lo := hi - joinChunk
		if lo < 0 {
			lo = 0
		}
		var ids Sel
		if vis != nil {
			ids = vis[lo:hi]
		} else {
			ids = Iota(all[:0], int32(lo), int32(hi))
		}
		clear(nulls)
		for j, c := range cols {
			NormCol(c, ids, words[j], nulls, 1)
		}
		w0 := words[0]
		for k := len(ids) - 1; k >= 0; k-- {
			if nulls[k] != 0 {
				continue
			}
			// A run of equal keys (clustered input) extends the chain it
			// just touched without hashing.
			same := last >= 0 && w0[k] == key.V[0]
			for j := 1; same && j < len(words); j++ {
				same = words[j][k] == key.V[j]
			}
			if same {
				t.next[ids[k]] = t.heads[last]
				t.heads[last] = ids[k]
				continue
			}
			for j, w := range words {
				key.V[j] = w[k]
			}
			last = t.Prepend(&key, ids[k])
		}
	}
	return t
}
