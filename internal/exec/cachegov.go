// Governed memoization: the evaluator's caches — the closed-box memo,
// correlated subquery caches, and recursive fixpoint sets — charge the
// query's memory budget like any other resident state. Insertion is
// opportunistic: a denied charge (after cross-operator reclaim) skips
// caching and the evaluator recomputes on the next reference. The one
// exception is fixpoint sets, which the recursion body re-enters through
// the memo every round and therefore must stay resident; when even reclaim
// cannot make room for one, the query fails with
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
// approximations (rows shared between a memo entry and a subquery cache
// are counted in both), which errs on the safe side of the cap.
type cacheGov struct {
	ev   *Evaluator
	acct *resource.Account
	memo map[*qgm.Box]int64        // charged bytes per memo entry
	sub  map[*qgm.Quantifier]int64 // charged bytes per subquery cache
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
// Memo entries of boxes mid-fixpoint (recActive) are pinned — the
// iteration re-enters them.
func (cg *cacheGov) reclaimOne() (int64, error) {
	var best int64
	var drop func()
	for b, n := range cg.memo {
		if cg.ev.recActive[b] {
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

// cacheDeleteQuant drops q's subquery cache and uncharges it (fixpoint SCC
// invalidation between rounds).
func (ev *Evaluator) cacheDeleteQuant(q *qgm.Quantifier) {
	delete(ev.subCache, q)
	if cg := ev.cgov; cg != nil {
		if n := cg.sub[q]; n > 0 {
			cg.acct.Shrink(n)
		}
		delete(cg.sub, q)
	}
}
