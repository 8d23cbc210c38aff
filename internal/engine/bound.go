package engine

// Per-binding plans. A `?` placeholder hides its value from the histograms,
// so the prepare-time plan of a parameterized text is made with default
// selectivities: `e.empno < ?` is guessed at 1/3 whatever the binding. For a
// bound query that guess can cost the magic plan (§3.2) — or pick one its
// literal text rejects. An execution therefore maps its binding to a
// selectivity class — the bucket of each binding-sensitive conjunct's
// estimate — and runs the plan made for that class, which the first
// execution in the class optimizes with its binding. The class plans are
// ordinary plan-cache entries, keyed by the text's key plus the class, so
// they share the cache's single-flight, epoch validation and LRU bound. They
// stay parameterized, so each is correct for any binding; only the choice
// among them follows the binding. The prepare-time plan, its EXPLAIN and its
// cache key are untouched.

import (
	"context"
	"math"
	"slices"
	"strconv"
	"sync"

	"starmagic/internal/datum"
	"starmagic/internal/opt"
	"starmagic/internal/qgm"
)

// MaxBindingPlans caps the selectivity classes one text plans for;
// executions in further classes run the prepare-time plan.
const MaxBindingPlans = 8

// maxBoundConjuncts is how many conjuncts a class holds (4 bits each).
const maxBoundConjuncts = 16

// boundPlans is what one prepared text's executions need to pick a plan for
// their binding, shared by every withConfig copy of the cache entry.
type boundPlans struct {
	// key is the text's plan-cache key; a class plan's key extends it.
	key string
	// conjs are the binding-sensitive conjuncts of the prepare-time plan's
	// graph: the estimates a class is made of.
	conjs []boundConj
	// mu guards classes, the classes admitted so far (at most
	// MaxBindingPlans), and keys, each one's cache key.
	mu      sync.Mutex
	classes []uint64
	keys    []string
}

type boundConj struct {
	box  *qgm.Box
	pred qgm.Expr
}

// newBoundPlans records the binding-sensitive conjuncts of g, the
// prepare-time plan's graph; nil when no estimate of g reads a binding. The
// caller holds db.mu.RLock.
func newBoundPlans(key string, g *qgm.Graph, noHist bool) *boundPlans {
	est := opt.Estimator{NoHist: noHist}
	var conjs []boundConj
	for _, b := range g.Reachable() {
		for _, p := range b.Preds {
			if len(conjs) < maxBoundConjuncts && est.BindingSensitive(p) {
				conjs = append(conjs, boundConj{b, p})
			}
		}
	}
	if conjs == nil {
		return nil
	}
	return &boundPlans{key: key, conjs: conjs}
}

// classify maps a binding to its class: per conjunct, the half-decade of
// its estimated selectivity, so plans are made for estimates at most √10
// apart. The caller holds db.mu.RLock (estimates read the statistics).
func (b *boundPlans) classify(params datum.Row, noHist bool) uint64 {
	est := opt.Estimator{NoHist: noHist, Params: params}
	var class uint64
	for i, c := range b.conjs {
		s := est.Selectivity(c.box, c.pred)
		bucket := uint64(15)
		if s > 0 {
			bucket = uint64(min(15, max(0, math.Floor(-2*math.Log10(s)))))
		}
		class |= bucket << (4 * i)
	}
	return class
}

// admit returns the cache key of class's plan, admitting the class while
// fewer than MaxBindingPlans are; "" past the cap.
func (b *boundPlans) admit(class uint64) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i := slices.Index(b.classes, class); i >= 0 {
		return b.keys[i]
	}
	if len(b.classes) >= MaxBindingPlans {
		return ""
	}
	key := b.key + "\x00class=" + strconv.FormatUint(class, 16)
	b.classes = append(b.classes, class)
	b.keys = append(b.keys, key)
	return key
}

// bindingPlan returns the plan made for the class of params, optimizing it
// through the plan cache on the class's first execution. It returns p, the
// prepare-time plan, when p records no binding-sensitive conjuncts, after
// an epoch change, past the cap, with the cache disabled, or when the
// optimization fails.
func (p *Prepared) bindingPlan(ctx context.Context, params datum.Row) *Prepared {
	b, db := p.bound, p.db
	if b == nil || db.epoch.Load() != p.epoch || !db.plans.enabled() {
		return p
	}
	noHist := db.noHist.Load()
	db.mu.RLock()
	class := b.classify(params, noHist)
	db.mu.RUnlock()
	key := b.admit(class)
	if key == "" {
		return p
	}
	cfg := queryConfig{
		strategy:   p.cfg.strategy,
		snapshots:  p.cfg.snapshots,
		forceEMST:  p.cfg.forceEMST,
		planParams: params,
	}
	bp, status, err := db.cachedPlan(ctx, key, p.explain.Query, cfg, p.epoch)
	if err != nil {
		return p
	}
	if status == cacheMissed {
		db.recordOptimization(bp)
	}
	return bp
}
