package sip

import (
	"slices"
	"testing"

	"repro/internal/parser"
)

// TestJoinOrderMovesTestsFirstAndHeadFeedersLast pins JoinOrder on the
// variants of the magic-rewritten same-generation rule: existence tests are
// joined as soon as their arguments are covered, a literal feeding only the
// head goes last, and GreedyOrder keeps its order.
func TestJoinOrderMovesTestsFirstAndHeadFeedersLast(t *testing.T) {
	prog := parser.MustParseProgram(`
		sg(X, Y) :- magic_sg(X), flat(X, Y).
		sg(X, Y) :- magic_sg(X), up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
		magic_sg(Z1) :- magic_sg(X), up(X, Z1).
	`)
	body := prog.Rules[1].Body
	derived := prog.DerivedPredicates()
	cases := []struct {
		name         string
		first        int
		greedy, join []int
	}{
		// Driven from sg(Z3, Z4): down(Z4, Y) binds only the head's Y, so it
		// moves behind the rest of the join.
		{"delta at sg(Z3, Z4)", 4, []int{4, 3, 5, 2, 1, 0}, []int{4, 3, 2, 1, 0, 5}},
		// Driven from sg(Z1, Z2): once up binds X, magic_sg(X) is a test
		// and is joined before flat.
		{"delta at sg(Z1, Z2)", 2, []int{2, 1, 3, 0, 4, 5}, []int{2, 1, 0, 3, 4, 5}},
	}
	for _, c := range cases {
		if got := GreedyOrder(body, nil, derived, c.first); !slices.Equal(got, c.greedy) {
			t.Errorf("%s: GreedyOrder = %v, want %v", c.name, got, c.greedy)
		}
		if got := JoinOrder(body, nil, derived, c.first); !slices.Equal(got, c.join) {
			t.Errorf("%s: JoinOrder = %v, want %v", c.name, got, c.join)
		}
	}
}
