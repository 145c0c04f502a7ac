package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
)

// Everything a workload feeds the engine is generated here from the seed:
// the same seed gives the same facts, the same prepared statements and the
// same per-client op streams. The engine only ever sees the output.

// edge is one binary fact between two symbols.
type edge [2]string

// fact is one ground fact of symbolic constants.
type fact struct {
	pred string
	args []string
}

// newRand returns the deterministic generator of one stream of a run.
// Streams are told apart by name, so adding a stream never shifts another.
func newRand(seed uint64, stream string) *rand.Rand {
	var h uint64 = 14695981039346656037 // FNV-1a over the stream name
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// dagComponent draws the edges of one random DAG over size nodes named
// prefix0..prefix(size-1): every node but the first gets one edge from a
// uniformly chosen earlier node, and with probability extra a second edge
// from another earlier node. Edges always point from a lower to a higher
// index, so the component is acyclic.
func dagComponent(r *rand.Rand, prefix string, size int, extra float64) []edge {
	var out []edge
	for j := 1; j < size; j++ {
		a := r.IntN(j)
		out = append(out, edge{nodeName(prefix, a), nodeName(prefix, j)})
		if j > 1 && r.Float64() < extra {
			b := r.IntN(j - 1)
			if b >= a {
				b++
			}
			out = append(out, edge{nodeName(prefix, b), nodeName(prefix, j)})
		}
	}
	return out
}

func nodeName(prefix string, i int) string { return fmt.Sprintf("%s%d", prefix, i) }

// sgFamilies is layered same-generation data: a forest of complete binary
// trees of the given depth. up(child, parent) and down(parent, child) link
// adjacent layers; every node has one flat edge to a uniformly chosen node
// of its own depth in its own family (itself included), so every answer
// set of sg stays inside one family layer.
type sgFamilies struct {
	up, flat, down []edge
	nodes          []string
}

func genSG(r *rand.Rand, prefix string, families, depth int) sgFamilies {
	var g sgFamilies
	size := 1<<(depth+1) - 1
	for f := 0; f < families; f++ {
		name := func(k int) string { return fmt.Sprintf("%s%d_%d", prefix, f, k) }
		for k := 0; k < size; k++ {
			g.nodes = append(g.nodes, name(k))
			if k > 0 {
				p := (k - 1) / 2
				g.up = append(g.up, edge{name(k), name(p)})
				g.down = append(g.down, edge{name(p), name(k)})
			}
			d := bitsLen(k+1) - 1 // depth of node k
			lo := 1<<d - 1
			g.flat = append(g.flat, edge{name(k), name(lo + r.IntN(1<<d))})
		}
	}
	return g
}

func bitsLen(x int) int {
	n := 0
	for ; x > 0; x >>= 1 {
		n++
	}
	return n
}

// facts lists the family forest as up/flat/down facts with predicate
// suffix sfx (front-read's slices rename their EDB per slice).
func (g sgFamilies) facts(sfx string) []fact {
	var out []fact
	for _, e := range g.up {
		out = append(out, fact{"up" + sfx, e[:]})
	}
	for _, e := range g.flat {
		out = append(out, fact{"flat" + sfx, e[:]})
	}
	for _, e := range g.down {
		out = append(out, fact{"down" + sfx, e[:]})
	}
	return out
}

func edgeFacts(pred string, edges []edge) []fact {
	out := make([]fact, len(edges))
	for i, e := range edges {
		out[i] = fact{pred, []string{e[0], e[1]}}
	}
	return out
}

// ancSGRules is the paper's linear ancestor and nonlinear same generation
// program, with every predicate name suffixed by sfx.
func ancSGRules(sfx string) string {
	return strings.ReplaceAll(`ancSFX(X, Y) :- parSFX(X, Y).
ancSFX(X, Y) :- parSFX(X, Z), ancSFX(Z, Y).
sgSFX(X, Y) :- flatSFX(X, Y).
sgSFX(X, Y) :- upSFX(X, Z1), sgSFX(Z1, Z2), flatSFX(Z2, Z3), sgSFX(Z3, Z4), downSFX(Z4, Y).
`, "SFX", sfx)
}

// zipf draws ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return zipf{cdf}
}

func (z zipf) draw(r *rand.Rand) int {
	u := r.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// pickMix draws an op kind from integer weights.
func pickMix(r *rand.Rand, mix [numOps]int) opKind {
	total := 0
	for _, w := range mix {
		total += w
	}
	x := r.IntN(total)
	for k, w := range mix {
		if x < w {
			return opKind(k)
		}
		x -= w
	}
	panic("unreachable: weights sum to total")
}
