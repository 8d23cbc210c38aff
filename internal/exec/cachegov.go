// Governed memoization: the evaluator's caches — the closed-box memo,
// correlated subquery caches, cached join hash tables, and recursive
// fixpoint sets — charge the query's memory budget like any other resident
// state. Insertion is opportunistic: a denied charge (after cross-operator
// reclaim) skips caching and the evaluator recomputes on the next
// reference. The one exception is fixpoint sets, which the recursion body
// re-enters through the memo every round and therefore must stay resident;
// when even reclaim cannot make room for one, the query fails with
// resource.ErrMemoryExceeded rather than exceeding the budget. Under
// pressure from other operators the governor is itself a spillable:
// reclaimOne drops the largest droppable cached entry.
package exec

import (
	"starmagic/internal/datum"
	"starmagic/internal/qgm"
	"starmagic/internal/resource"
)

// cacheGov tracks the budget bytes charged for each cached entry. Sizes are
// approximations (rows shared between a memo entry and a hash table built
// over it are counted in both), which errs on the safe side of the cap.
type cacheGov struct {
	ev   *Evaluator
	acct *resource.Account
	memo map[*qgm.Box]int64        // charged bytes per memo entry
	sub  map[*qgm.Quantifier]int64 // charged bytes per subquery cache
	hash map[*qgm.Quantifier]int64 // charged bytes per hash-table cache
}

// cg returns the evaluator's cache governor, nil when no budget is
// attached (ungoverned caching). The governor registers as a spillable so
// operators under pressure can evict cached entries.
func (ev *Evaluator) cg() *cacheGov {
	if ev.Mem == nil {
		return nil
	}
	if ev.cgov == nil {
		ev.cgov = &cacheGov{
			ev:   ev,
			acct: ev.Mem.OpenAccount(),
			memo: map[*qgm.Box]int64{},
			sub:  map[*qgm.Quantifier]int64{},
			hash: map[*qgm.Quantifier]int64{},
		}
		ev.spillables = append(ev.spillables, ev.cgov)
	}
	return ev.cgov
}

// charge reserves n bytes for cached state, paging out other operators'
// state — and, through its own reclaimOne, older cached entries — when the
// first attempt is denied. A non-nil return means the bytes are simply not
// available; callers either skip caching or propagate.
func (cg *cacheGov) charge(n int64) error {
	for {
		err := cg.acct.Grow(n)
		if err == nil {
			return nil
		}
		freed, rerr := cg.ev.reclaimSpace(nil)
		if rerr != nil {
			return rerr
		}
		if !freed {
			return err
		}
	}
}

// reclaimOne implements spillable: drop the largest droppable cached entry.
// Memo entries of boxes currently evaluating (inProgress) or mid-fixpoint
// (recActive) are pinned — the evaluation re-enters them.
func (cg *cacheGov) reclaimOne() (int64, error) {
	var best int64
	var drop func()
	for b, n := range cg.memo {
		if cg.ev.recActive[b] || cg.ev.inProgress[b] {
			continue
		}
		if n > best {
			b := b
			best, drop = n, func() { cg.ev.memoDelete(b) }
		}
	}
	for q, n := range cg.sub {
		if n > best {
			q := q
			best, drop = n, func() {
				delete(cg.ev.subCache, q)
				cg.acct.Shrink(n)
				delete(cg.sub, q)
			}
		}
	}
	for q, n := range cg.hash {
		if n > best {
			q := q
			best, drop = n, func() {
				delete(cg.ev.hashCache, q)
				cg.acct.Shrink(n)
				delete(cg.hash, q)
			}
		}
	}
	if drop == nil {
		return cg.acct.ReleaseIdle(), nil
	}
	drop()
	return best + cg.acct.ReleaseIdle(), nil
}

// rowsMemBytes approximates the resident footprint of a materialized row
// set: slice spine plus per-row datum payloads.
func rowsMemBytes(rows []datum.Row) int64 {
	n := int64(24 + 8*len(rows))
	for _, r := range rows {
		n += datum.RowMemBytes(r)
	}
	return n
}

// htMemBytes approximates a cached join hash table's footprint.
func htMemBytes(ht map[string][]datum.Row) int64 {
	n := int64(48)
	for k, rows := range ht {
		n += keyMemBytes(len(k)) + rowsMemBytes(rows)
	}
	return n
}

// memoInsert records a closed box's materialization, charging the rows to
// the budget when one is attached. A denied charge skips caching — the box
// recomputes on its next reference — and never fails the query.
func (ev *Evaluator) memoInsert(b *qgm.Box, rows []datum.Row) {
	cg := ev.cg()
	if cg == nil {
		ev.memo[b] = rows
		return
	}
	if old, ok := cg.memo[b]; ok {
		cg.acct.Shrink(old)
		delete(cg.memo, b)
		delete(ev.memo, b)
	}
	n := rowsMemBytes(rows)
	if cg.charge(n) != nil {
		return
	}
	ev.memo[b] = rows
	cg.memo[b] = n
}

// memoResident pins rows as b's memo entry, charging only the growth since
// the last round. Unlike memoInsert it cannot skip: recursive fixpoint sets
// are re-entered through the memo every round, so when even reclaim cannot
// make room the query surfaces resource.ErrMemoryExceeded.
func (ev *Evaluator) memoResident(b *qgm.Box, rows []datum.Row) error {
	cg := ev.cg()
	if cg == nil {
		ev.memo[b] = rows
		return nil
	}
	n := rowsMemBytes(rows)
	old := cg.memo[b]
	if n > old {
		if err := cg.charge(n - old); err != nil {
			return err
		}
	} else if old > n {
		cg.acct.Shrink(old - n)
	}
	cg.memo[b] = n
	ev.memo[b] = rows
	return nil
}

// memoDelete removes b's memo entry and uncharges it.
func (ev *Evaluator) memoDelete(b *qgm.Box) {
	delete(ev.memo, b)
	if cg := ev.cgov; cg != nil {
		if n, ok := cg.memo[b]; ok {
			cg.acct.Shrink(n)
			delete(cg.memo, b)
		}
	}
}

// subInsert records one correlation key's subquery result in q's cache,
// skipping on a denied charge.
func (ev *Evaluator) subInsert(q *qgm.Quantifier, cache map[string][]datum.Row, key string, rows []datum.Row) {
	cg := ev.cg()
	if cg != nil {
		n := keyMemBytes(len(key)) + rowsMemBytes(rows)
		if cg.charge(n) != nil {
			return
		}
		cg.sub[q] += n
	}
	cache[key] = rows
}

// hashInsert records a reusable join hash table for q under keySig,
// skipping on a denied charge.
func (ev *Evaluator) hashInsert(q *qgm.Quantifier, keySig string, ht map[string][]datum.Row) {
	cg := ev.cg()
	if cg != nil {
		n := keyMemBytes(len(keySig)) + htMemBytes(ht)
		if cg.charge(n) != nil {
			return
		}
		cg.hash[q] += n
	}
	byKey := ev.hashCache[q]
	if byKey == nil {
		byKey = map[string]map[string][]datum.Row{}
		ev.hashCache[q] = byKey
	}
	byKey[keySig] = ht
}

// cacheDeleteQuant drops q's subquery and hash-table caches and uncharges
// them (fixpoint SCC invalidation between rounds).
func (ev *Evaluator) cacheDeleteQuant(q *qgm.Quantifier) {
	delete(ev.hashCache, q)
	delete(ev.subCache, q)
	if cg := ev.cgov; cg != nil {
		if n := cg.sub[q]; n > 0 {
			cg.acct.Shrink(n)
		}
		delete(cg.sub, q)
		if n := cg.hash[q]; n > 0 {
			cg.acct.Shrink(n)
		}
		delete(cg.hash, q)
	}
}
