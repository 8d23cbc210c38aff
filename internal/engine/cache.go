package engine

// Plan cache: prepared plans keyed by normalized SQL text + strategy, so
// parameterized queries amortize the two-pass EMST optimization (phase-1,
// magic transformation, phase-3, and both plan-optimization passes) across
// executions. Because `?` placeholders are opaque constants in the QGM —
// they add no quantifiers and no correlation — every plan of a text,
// including the magic seed box the EMST transformation installs, is correct
// for every binding: the prepare-time plan, made with default
// selectivities, serves them all, and the plans executions make for their
// bindings' selectivity classes (see bound.go) are entries of their own,
// keyed by the text's key plus the class.
//
// The cache is sharded to keep hot prepares from contending on one mutex,
// each shard is a bounded LRU, and misses are single-flighted: concurrent
// callers of the same key wait for one leader's optimization instead of
// repeating it. Entries are validated against the database's catalog epoch
// (bumped by DDL and explicit ANALYZE; DML and bulk loads only mark the
// statistics dirty); a stale entry is evicted and re-prepared on first
// touch, and so is a held Prepared of an older epoch on its next execution.
// Errors are never cached.

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"

	"starmagic/internal/sql"
)

// cacheShardCount must be a power of two (shard pick masks the FNV hash).
const cacheShardCount = 16

// defaultCachePerShard bounds each shard's LRU: 16 shards × 64 = 1024 plans.
const defaultCachePerShard = 64

type planCache struct {
	// disabled is inverted so the zero value is an enabled cache.
	disabled atomic.Bool
	perShard int
	shards   [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu  sync.Mutex
	lru *list.List // front = most recently used; values are *cacheEntry
	m   map[string]*list.Element
}

// cacheEntry is published to the shard map before its plan exists: ready
// closes once p/err are set, and waiters block on it (single-flight).
type cacheEntry struct {
	key   string
	ready chan struct{}
	epoch uint64 // catalog epoch the plan was prepared under
	p     *Prepared
	err   error
}

func newPlanCache(perShard int) *planCache {
	if perShard <= 0 {
		perShard = defaultCachePerShard
	}
	c := &planCache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].lru = list.New()
		c.shards[i].m = make(map[string]*list.Element)
	}
	return c
}

func (c *planCache) enabled() bool { return !c.disabled.Load() }

func (c *planCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

func (c *planCache) purge() {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.lru.Init()
		sh.m = make(map[string]*list.Element)
		sh.mu.Unlock()
	}
}

// removeLocked unlinks el from the LRU and the map; sh.mu must be held.
func (sh *cacheShard) removeLocked(el *list.Element) {
	sh.lru.Remove(el)
	delete(sh.m, el.Value.(*cacheEntry).key)
}

// cacheShardIndex is inline FNV-1a over the key, masked to a shard.
func cacheShardIndex(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h & (cacheShardCount - 1)
}

// cacheKey identifies a plan: normalized SQL (whitespace, case, and comments
// do not fragment the cache) plus everything that changes the *stored* plan —
// strategy and snapshot capture. Per-call state (args, tracer, row limit,
// materialized execution) stays out of the key: it is applied to a shallow
// per-call copy on every hit.
func cacheKey(query string, cfg queryConfig) string {
	k := sql.Normalize(query) + "\x00" + cfg.strategy.String()
	if cfg.snapshots {
		k += "\x00snap"
	}
	if cfg.forceEMST {
		k += "\x00force-emst"
	}
	return k
}

// withConfig returns a shallow copy of a cached plan bound to one call's
// per-call options and its own explain header. The graph, physical plan,
// and explain payload are shared read-only across all users of the entry.
func (p *Prepared) withConfig(cfg queryConfig, status string, epoch uint64) *Prepared {
	cp := *p
	cp.cfg = cfg
	ex := *p.explain
	ex.CacheStatus = status
	ex.CacheEpoch = epoch
	cp.explain = &ex
	return &cp
}

// cacheOutcome is how the cache served a lookup.
type cacheOutcome int

const (
	cacheHit    cacheOutcome = iota // the stored plan
	cacheShared                     // waited on another caller's optimization
	cacheMissed                     // optimized cold by this caller
)

// prepareCached serves a prepare through the plan cache: hit, single-flight
// wait, or leader cold-prepare on miss. epoch is the catalog epoch the
// caller validated statistics against (see prepare); entries are stored and
// checked under it so a plan can never be cached under an epoch newer than
// the statistics it was optimized with.
func (db *Database) prepareCached(ctx context.Context, query string, cfg queryConfig, epoch uint64) (*Prepared, error) {
	p, how, err := db.cachedPlan(ctx, cacheKey(query, cfg), query, cfg, epoch)
	if err != nil {
		return nil, err
	}
	status := "hit"
	switch how {
	case cacheHit:
		db.metrics.RecordCacheHit()
	case cacheShared:
		db.metrics.RecordCacheShared()
	case cacheMissed:
		status = "miss"
	}
	return p.withConfig(cfg, status, epoch), nil
}

// cachedPlan returns the stored plan of key, or optimizes query under cfg
// as the single-flight leader for key on a miss. It counts misses; the
// caller counts what else it serves.
func (db *Database) cachedPlan(ctx context.Context, key, query string, cfg queryConfig, epoch uint64) (*Prepared, cacheOutcome, error) {
	sh := &db.plans.shards[cacheShardIndex(key)]
	for {
		sh.mu.Lock()
		if el, ok := sh.m[key]; ok {
			e := el.Value.(*cacheEntry)
			select {
			case <-e.ready:
				if e.err == nil && e.epoch == epoch {
					sh.lru.MoveToFront(el)
					sh.mu.Unlock()
					return e.p, cacheHit, nil
				}
				// Stale (the epoch advanced since it was prepared): drop it
				// and take over as the new leader below, still locked.
				sh.removeLocked(el)
			default:
				// Another caller is optimizing this key right now: wait for
				// its result instead of repeating the work.
				sh.mu.Unlock()
				select {
				case <-e.ready:
				case <-ctx.Done():
					return nil, 0, ctx.Err()
				}
				if e.err == nil && e.epoch == epoch {
					return e.p, cacheShared, nil
				}
				continue // leader failed or entry went stale; retry
			}
		}
		// Miss: optimize cold as the leader for this key.
		db.metrics.RecordCacheMiss()
		p, err := db.leadPrepare(ctx, query, cfg, epoch, key, sh)
		return p, cacheMissed, err
	}
}

// leadPrepare makes the caller the single-flight leader for key: it publishes
// an in-flight entry (sh.mu must be held; leadPrepare unlocks it), runs the
// cold optimization outside the lock, and completes the entry so waiters
// unblock.
func (db *Database) leadPrepare(ctx context.Context, query string, cfg queryConfig, epoch uint64, key string, sh *cacheShard) (*Prepared, error) {
	e := &cacheEntry{key: key, ready: make(chan struct{}), epoch: epoch}
	el := sh.lru.PushFront(e)
	sh.m[key] = el
	evicted := 0
	for sh.lru.Len() > db.plans.perShard {
		sh.removeLocked(sh.lru.Back())
		evicted++
	}
	sh.mu.Unlock()
	if evicted > 0 {
		db.metrics.RecordCacheEvictions(evicted)
	}
	p, err := db.prepareCold(ctx, query, cfg, epoch)
	e.p, e.err = p, err
	close(e.ready)
	if err != nil {
		// Errors are not cached: remove the entry if it is still ours.
		sh.mu.Lock()
		if cur, ok := sh.m[key]; ok && cur.Value.(*cacheEntry) == e {
			sh.removeLocked(cur)
		}
		sh.mu.Unlock()
		return nil, err
	}
	return p, nil
}

// SetPlanCache enables or disables the prepared-plan cache (it starts
// enabled). Disabling also clears it.
func (db *Database) SetPlanCache(enabled bool) {
	db.plans.disabled.Store(!enabled)
	if !enabled {
		db.plans.purge()
	}
}

// PlanCacheStats is a point-in-time view of the plan cache for tooling
// (magicsql's `.cache stats`). Counters come from the metrics sink, so
// ResetMetrics zeroes them.
type PlanCacheStats struct {
	Enabled   bool
	Entries   int
	Hits      int64
	Misses    int64
	Shared    int64 // prepares served by waiting on another caller's miss
	Evictions int64
}

// PlanCacheStats snapshots the cache state and counters.
func (db *Database) PlanCacheStats() PlanCacheStats {
	m := db.metrics.Snapshot()
	return PlanCacheStats{
		Enabled:   db.plans.enabled(),
		Entries:   db.plans.len(),
		Hits:      m.CacheHits,
		Misses:    m.CacheMisses,
		Shared:    m.CacheShared,
		Evictions: m.CacheEvictions,
	}
}
