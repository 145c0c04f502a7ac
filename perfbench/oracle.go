package main

import (
	"math/rand/v2"
	"sort"
)

// The answer oracle: expected answers computed in plain Go from the data
// the generators produced, never by the engine. Every answer set the
// benchmark receives is compared against it.

// digraph is an adjacency list over symbols.
type digraph map[string][]string

func newDigraph(edges []edge) digraph {
	g := digraph{}
	for _, e := range edges {
		g[e[0]] = append(g[e[0]], e[1])
	}
	return g
}

// reach returns the nodes reachable from start over one or more edges,
// sorted: the answers of anc(start, Y) when g holds par.
func (g digraph) reach(start string) []string {
	seen := map[string]bool{}
	stack := append([]string(nil), g[start]...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, g[n]...)
	}
	return sortedKeys(seen)
}

func sortedKeys(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// sameGeneration computes the nonlinear same-generation relation of one
// family forest, sg(x, Y) for every node x, sorted:
//
//	sg(X, Y) :- flat(X, Y).
//	sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
//
// Every sg fact joins two nodes of one depth, and the recursive rule only
// consults sg of nodes one layer up, so sg of a node is computed from its
// parent layer's by direct recursion.
func sameGeneration(g sgFamilies) map[string][]string {
	up, flat, down := newDigraph(g.up), newDigraph(g.flat), newDigraph(g.down)
	memo := map[string]map[string]bool{}
	var sg func(x string) map[string]bool
	sg = func(x string) map[string]bool {
		if s, ok := memo[x]; ok {
			return s
		}
		s := map[string]bool{}
		for _, y := range flat[x] {
			s[y] = true
		}
		for _, z1 := range up[x] {
			for z2 := range sg(z1) {
				for _, z3 := range flat[z2] {
					for z4 := range sg(z3) {
						for _, y := range down[z4] {
							s[y] = true
						}
					}
				}
			}
		}
		memo[x] = s
		return s
	}
	out := map[string][]string{}
	for _, x := range g.nodes {
		out[x] = sortedKeys(sg(x))
	}
	return out
}

// regionState is one durable-write client's slice of par: components of
// compSize nodes whose edges only that client writes. Edges are kept in
// assertion order, so each transaction retracts the oldest ones.
type regionState struct {
	prefix   string
	comps    int
	compSize int
	order    []edge // oldest first
	present  map[edge]bool
}

func newRegion(prefix string, comps, compSize int, edges []edge) *regionState {
	s := &regionState{prefix: prefix, comps: comps, compSize: compSize, present: map[edge]bool{}}
	for _, e := range edges {
		s.order = append(s.order, e)
		s.present[e] = true
	}
	return s
}

func (s *regionState) clone() *regionState {
	return newRegion(s.prefix, s.comps, s.compSize, s.order)
}

func (s *regionState) node(comp, i int) string {
	return nodeName(s.prefix+nodeName("c", comp)+"n", i)
}

// nextTxn draws the next transaction of the region: retract the k oldest
// edges and assert k edges that are not stored, each from a lower to a
// higher node of one component, so the region stays acyclic and its size
// constant.
func (s *regionState) nextTxn(r *rand.Rand, k int) (retracts, asserts []edge) {
	retracts = append(retracts, s.order[:k]...)
	picked := map[edge]bool{}
	for len(asserts) < k {
		c := r.IntN(s.comps)
		j := 1 + r.IntN(s.compSize-1)
		i := r.IntN(j)
		e := edge{s.node(c, i), s.node(c, j)}
		if s.present[e] || picked[e] {
			continue
		}
		picked[e] = true
		asserts = append(asserts, e)
	}
	return retracts, asserts
}

// apply records an acknowledged transaction.
func (s *regionState) apply(retracts, asserts []edge) {
	drop := map[edge]bool{}
	for _, e := range retracts {
		drop[e] = true
		delete(s.present, e)
	}
	kept := s.order[:0:0]
	for _, e := range s.order {
		if !drop[e] {
			kept = append(kept, e)
		}
	}
	for _, e := range asserts {
		s.present[e] = true
		kept = append(kept, e)
	}
	s.order = kept
}

// descendants answers anc(x, Y) over the region's current edges.
func (s *regionState) descendants(x string) []string {
	return newDigraph(s.order).reach(x)
}
