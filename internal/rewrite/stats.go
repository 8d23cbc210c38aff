package rewrite

// RuleStat is one rule's activity during engine runs that share a Stats:
// how often the rule was attempted (Apply called at a box) and how often it
// fired (mutated the graph). The paper's tuning argument — you compare rule
// firings you can measure — needs exactly this split: a rule with many
// attempts and no fires is a dead candidate; one that fires every attempt is
// load-bearing.
type RuleStat struct {
	Rule     string
	Attempts int64
	Fires    int64
}

// Stats tallies per-rule attempt/fire counts. A single Stats may be shared
// across several engine runs (the pipeline threads one through all three
// rewrite phases). It is not safe for concurrent use; each optimization owns
// its own.
type Stats struct {
	order  []string
	byName map[string]*RuleStat
}

// Observe records one Apply outcome.
func (s *Stats) Observe(rule string, fired bool) {
	if s.byName == nil {
		s.byName = map[string]*RuleStat{}
	}
	st, ok := s.byName[rule]
	if !ok {
		st = &RuleStat{Rule: rule}
		s.byName[rule] = st
		s.order = append(s.order, rule)
	}
	st.Attempts++
	if fired {
		st.Fires++
	}
}

// Snapshot returns the per-rule counts in first-observed order.
func (s *Stats) Snapshot() []RuleStat {
	out := make([]RuleStat, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, *s.byName[name])
	}
	return out
}
