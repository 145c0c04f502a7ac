package sip

import "repro/internal/ast"

// coverScore returns the number of arguments of the literal fully covered by
// the available variables, with ground arguments counting as covered. It is
// the scoring function of the greedy bound-first heuristic, shared between
// the sip strategy (GreedyBoundFirst) and the join-pipeline compiler of
// internal/eval.
func coverScore(lit ast.Atom, available map[string]bool) int {
	n := 0
	for _, arg := range lit.Args {
		vars := ast.Vars(arg, nil)
		if len(vars) == 0 {
			if ast.IsGround(arg) {
				n++
			}
			continue
		}
		all := true
		for _, v := range vars {
			if !available[v] {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n
}

// greedyPick returns the unused body position with the highest cover score,
// preferring base literals among equals and, among those, the textual order.
// It returns -1 when every position is used.
func greedyPick(body []ast.Atom, used []bool, available map[string]bool, derived map[string]bool) int {
	best := -1
	bestScore := -1
	bestIsBase := false
	for i, lit := range body {
		if used[i] {
			continue
		}
		s := coverScore(lit, available)
		isBase := !derived[lit.PredKey()]
		better := false
		switch {
		case s > bestScore:
			better = true
		case s == bestScore && isBase && !bestIsBase:
			// Prefer base literals: they are directly evaluable and feed
			// bindings to the derived ones.
			better = true
		}
		if better {
			best, bestScore, bestIsBase = i, s, isBase
		}
	}
	return best
}

// GreedyOrder returns an evaluation order over the body positions chosen by
// the greedy bound-variables-first heuristic: starting from the variables in
// bound, repeatedly pick the literal with the most arguments fully covered
// by the variables available so far (ground arguments count as covered),
// preferring base literals and, among equals, the textual order. If first is
// a valid body position, that literal is forced to the front of the order —
// the join compiler of internal/eval uses this to drive a semi-naive join
// from the delta occurrence, and a first pass from the first derived
// literal (a rewriting's magic or supplementary guard). The bound map is not
// modified.
func GreedyOrder(body []ast.Atom, bound map[string]bool, derived map[string]bool, first int) []int {
	available := make(map[string]bool, len(bound))
	for v := range bound {
		available[v] = true
	}
	order := make([]int, 0, len(body))
	used := make([]bool, len(body))
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, v := range ast.AtomVars(body[i], nil) {
			available[v] = true
		}
	}
	if first >= 0 && first < len(body) {
		take(first)
	}
	for len(order) < len(body) {
		take(greedyPick(body, used, available, derived))
	}
	return order
}

// JoinOrder is the evaluation-only join order of the compiled rule
// variants of internal/eval. It refines GreedyOrder with two rules applied
// before the greedy score at every pick:
//
//   - a literal whose arguments are all covered (an existence test) goes
//     first: it can only filter, so testing it early prunes the most work;
//   - a literal whose new variables occur in no other remaining literal
//     (it feeds only the head) goes last: its matches multiply the work of
//     every literal joined after it without binding anything they use.
//
// Among the literals neither rule separates, the GreedyOrder preference
// holds: most covered arguments, then base literals, then textual order.
// first is forced to the front as in GreedyOrder. Rewritings keep using
// GreedyOrder, so rewritten programs do not depend on this order.
func JoinOrder(body []ast.Atom, bound map[string]bool, derived map[string]bool, first int) []int {
	available := make(map[string]bool, len(bound))
	for v := range bound {
		available[v] = true
	}
	order := make([]int, 0, len(body))
	used := make([]bool, len(body))
	take := func(i int) {
		used[i] = true
		order = append(order, i)
		for _, v := range ast.AtomVars(body[i], nil) {
			available[v] = true
		}
	}
	if first >= 0 && first < len(body) {
		take(first)
	}
	for len(order) < len(body) {
		take(joinPick(body, used, available, derived))
	}
	return order
}

// joinPick returns the unused body position JoinOrder takes next:
// greedyPick's choice among the unused literals of the lowest rank, where
// an existence test ranks 0, a literal feeding only the head 2, any other
// literal 1.
func joinPick(body []ast.Atom, used []bool, available map[string]bool, derived map[string]bool) int {
	ranks := make([]int, len(body))
	best := 2
	for i, lit := range body {
		if used[i] {
			continue
		}
		switch {
		case coverScore(lit, available) == len(lit.Args):
			ranks[i] = 0
		case feedsOnlyHead(body, used, i, available):
			ranks[i] = 2
		default:
			ranks[i] = 1
		}
		best = min(best, ranks[i])
	}
	skip := make([]bool, len(body))
	for i := range body {
		skip[i] = used[i] || ranks[i] != best
	}
	return greedyPick(body, skip, available, derived)
}

// feedsOnlyHead reports whether none of the variables body[i] would newly
// bind occurs in another unused literal.
func feedsOnlyHead(body []ast.Atom, used []bool, i int, available map[string]bool) bool {
	for _, v := range ast.AtomVars(body[i], nil) {
		if available[v] {
			continue
		}
		for j, lit := range body {
			if j == i || used[j] {
				continue
			}
			for _, w := range ast.AtomVars(lit, nil) {
				if w == v {
					return false
				}
			}
		}
	}
	return true
}
