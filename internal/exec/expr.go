package exec

import (
	"fmt"

	"starmagic/internal/datum"
	"starmagic/internal/qgm"
)

// Env binds quantifiers to their current rows during evaluation. Outer
// bindings (correlation) and local bindings share one map; bindings are
// rows of the box each quantifier ranges over.
type Env map[*qgm.Quantifier]datum.Row

// paramsQ is the sentinel quantifier binding the run's parameter values in
// every environment: env[paramsQ][i] is the value of placeholder ordinal i.
// It belongs to no box, so it never collides with a real quantifier, and
// Env.clone propagates it into derived environments for free.
var paramsQ = &qgm.Quantifier{Name: "?params"}

// BindParams returns an environment carrying only parameter bindings.
// A plan's run seeds its root environments with it (planRun.rootEnv); it is
// exported for callers evaluating expressions outside a plan.
func BindParams(params datum.Row) Env {
	if params == nil {
		return Env{}
	}
	return Env{paramsQ: params}
}

// clone returns a copy of the environment.
func (e Env) clone() Env {
	c := make(Env, len(e)+4)
	for k, v := range e {
		c[k] = v
	}
	return c
}

// EvalExpr evaluates a scalar expression under env. Boolean results use
// datum.TBool with Null representing UNKNOWN.
func EvalExpr(e qgm.Expr, env Env) (datum.D, error) {
	switch x := e.(type) {
	case *qgm.ColRef:
		row, ok := env[x.Q]
		if !ok {
			return datum.Null(), fmt.Errorf("exec: unbound quantifier %q", x.Q.Name)
		}
		if x.Ord >= len(row) {
			return datum.Null(), fmt.Errorf("exec: ordinal %d out of range for %q", x.Ord, x.Q.Name)
		}
		return row[x.Ord], nil
	case *qgm.Const:
		return x.Val, nil
	case *qgm.Param:
		params, ok := env[paramsQ]
		if !ok || x.Ord >= len(params) {
			return datum.Null(), fmt.Errorf("exec: unbound parameter ?%d (got %d bindings)", x.Ord+1, len(params))
		}
		return params[x.Ord], nil
	case *qgm.Cmp:
		l, err := EvalExpr(x.L, env)
		if err != nil {
			return datum.Null(), err
		}
		r, err := EvalExpr(x.R, env)
		if err != nil {
			return datum.Null(), err
		}
		return tvDatum(datum.CompareTV(x.Op, l, r)), nil
	case *qgm.Logic:
		acc := datum.True
		if x.Op == qgm.Or {
			acc = datum.False
		}
		for _, a := range x.Args {
			v, err := EvalPred(a, env)
			if err != nil {
				return datum.Null(), err
			}
			if x.Op == qgm.And {
				acc = acc.And(v)
				if acc == datum.False {
					break
				}
			} else {
				acc = acc.Or(v)
				if acc == datum.True {
					break
				}
			}
		}
		return tvDatum(acc), nil
	case *qgm.Not:
		v, err := EvalPred(x.X, env)
		if err != nil {
			return datum.Null(), err
		}
		return tvDatum(v.Not()), nil
	case *qgm.Arith:
		l, err := EvalExpr(x.L, env)
		if err != nil {
			return datum.Null(), err
		}
		r, err := EvalExpr(x.R, env)
		if err != nil {
			return datum.Null(), err
		}
		return datum.Arith(x.Op, l, r)
	case *qgm.Neg:
		v, err := EvalExpr(x.X, env)
		if err != nil {
			return datum.Null(), err
		}
		return datum.Neg(v)
	case *qgm.IsNull:
		v, err := EvalExpr(x.X, env)
		if err != nil {
			return datum.Null(), err
		}
		res := v.IsNull()
		if x.Negate {
			res = !res
		}
		return datum.Bool(res), nil
	case *qgm.Like:
		v, err := EvalExpr(x.X, env)
		if err != nil {
			return datum.Null(), err
		}
		if v.IsNull() {
			return datum.NullOf(datum.TBool), nil
		}
		if v.T != datum.TString {
			return datum.Null(), fmt.Errorf("exec: LIKE on %s", v.T)
		}
		res := likeMatch(v.S, x.Pattern)
		if x.Negate {
			res = !res
		}
		return datum.Bool(res), nil
	case *qgm.Concat:
		l, err := EvalExpr(x.L, env)
		if err != nil {
			return datum.Null(), err
		}
		r, err := EvalExpr(x.R, env)
		if err != nil {
			return datum.Null(), err
		}
		if l.IsNull() || r.IsNull() {
			return datum.NullOf(datum.TString), nil
		}
		return datum.String(l.Format() + r.Format()), nil
	case *qgm.Match:
		return datum.Bool(x.Truth), nil
	case *qgm.Case:
		for _, w := range x.Whens {
			tv, err := EvalPred(w.When, env)
			if err != nil {
				return datum.Null(), err
			}
			if tv == datum.True {
				return EvalExpr(w.Then, env)
			}
		}
		if x.Else != nil {
			return EvalExpr(x.Else, env)
		}
		return datum.Null(), nil
	case *qgm.Func:
		return evalFunc(x, env)
	}
	return datum.Null(), fmt.Errorf("exec: unsupported expression %T", e)
}

// EvalPred evaluates a predicate expression to a three-valued truth value.
func EvalPred(e qgm.Expr, env Env) (datum.TV, error) {
	v, err := EvalExpr(e, env)
	if err != nil {
		return datum.Unknown, err
	}
	return datumTV(v)
}

func tvDatum(v datum.TV) datum.D {
	switch v {
	case datum.True:
		return datum.Bool(true)
	case datum.False:
		return datum.Bool(false)
	}
	return datum.NullOf(datum.TBool)
}

func datumTV(v datum.D) (datum.TV, error) {
	if v.IsNull() {
		return datum.Unknown, nil
	}
	if v.T != datum.TBool {
		return datum.Unknown, fmt.Errorf("exec: predicate evaluated to %s, not boolean", v.T)
	}
	return datum.FromBool(v.B), nil
}

// evalFunc evaluates the supported scalar functions. NULL arguments yield
// NULL except for COALESCE (skips them) and NULLIF.
func evalFunc(x *qgm.Func, env Env) (datum.D, error) {
	switch x.Name {
	case "COALESCE":
		for _, a := range x.Args {
			v, err := EvalExpr(a, env)
			if err != nil {
				return datum.Null(), err
			}
			if !v.IsNull() {
				return v, nil
			}
		}
		return datum.Null(), nil
	case "NULLIF":
		a, err := EvalExpr(x.Args[0], env)
		if err != nil {
			return datum.Null(), err
		}
		b, err := EvalExpr(x.Args[1], env)
		if err != nil {
			return datum.Null(), err
		}
		if datum.CompareTV(datum.EQ, a, b) == datum.True {
			return datum.NullOf(a.T), nil
		}
		return a, nil
	}
	args := make([]datum.D, len(x.Args))
	for i, a := range x.Args {
		v, err := EvalExpr(a, env)
		if err != nil {
			return datum.Null(), err
		}
		if v.IsNull() {
			return datum.NullOf(v.T), nil
		}
		args[i] = v
	}
	switch x.Name {
	case "ABS":
		switch args[0].T {
		case datum.TInt:
			if args[0].I < 0 {
				return datum.Int(-args[0].I), nil
			}
			return args[0], nil
		case datum.TFloat:
			if args[0].F < 0 {
				return datum.Float(-args[0].F), nil
			}
			return args[0], nil
		}
		return datum.Null(), fmt.Errorf("exec: ABS on %s", args[0].T)
	case "UPPER":
		return datum.String(asciiMap(args[0].S, 'a', 'z', -32)), nil
	case "LOWER":
		return datum.String(asciiMap(args[0].S, 'A', 'Z', 32)), nil
	case "LENGTH":
		return datum.Int(int64(len(args[0].S))), nil
	}
	return datum.Null(), fmt.Errorf("exec: unknown function %q", x.Name)
}

func asciiMap(s string, lo, hi byte, delta int) string {
	b := []byte(s)
	for i, c := range b {
		if c >= lo && c <= hi {
			b[i] = byte(int(c) + delta)
		}
	}
	return string(b)
}

// likeMatch implements SQL LIKE: '%' matches any sequence, '_' any single
// character. Matching is byte-wise (ASCII data in this engine).
func likeMatch(s, pattern string) bool {
	// Iterative two-pointer algorithm with backtracking on '%'.
	si, pi := 0, 0
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '_' || pattern[pi] == s[si]):
			si++
			pi++
		case pi < len(pattern) && pattern[pi] == '%':
			star = pi
			sBack = si
			pi++
		case star >= 0:
			sBack++
			si = sBack
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '%' {
		pi++
	}
	return pi == len(pattern)
}
