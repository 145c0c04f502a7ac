package database

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/intern"
)

// indexMasks are the column sets the chain tests build indexes on.
var indexMasks = [][]int{{0}, {1}, {0, 1}}

// checkChains verifies every built index of r: each chain ascends, holds
// exactly the rows with its projection hash, and together the chains hold
// every row once.
func checkChains(t *testing.T, label string, r *Relation) {
	t.Helper()
	m := r.indexes.Load()
	if m == nil || len(*m) == 0 {
		t.Fatalf("%s: no index built", label)
	}
	for _, idx := range *m {
		if len(idx.next) != r.Len() {
			t.Fatalf("%s: index on %v links %d rows, relation has %d", label, idx.cols, len(idx.next), r.Len())
		}
		seen := make([]bool, r.Len())
		for _, s := range idx.slots {
			if s.hash == 0 {
				continue
			}
			last := int32(-1)
			for p := s.head; p >= 0; p = idx.next[p] {
				if p <= last {
					t.Fatalf("%s: chain on %v does not ascend: %d after %d", label, idx.cols, p, last)
				}
				if seen[p] {
					t.Fatalf("%s: row %d on two chains", label, p)
				}
				if slotHash(hashProjection(r.rows[p], idx.cols)) != s.hash {
					t.Fatalf("%s: row %d on the chain of another hash", label, p)
				}
				seen[p] = true
				last = p
			}
			if s.tail != last {
				t.Fatalf("%s: chain tail %d, last position %d", label, s.tail, last)
			}
		}
		for p, ok := range seen {
			if !ok {
				t.Fatalf("%s: row %d on no chain of the index on %v", label, p, idx.cols)
			}
		}
	}
}

// chainRelation fills a relation with n rows over a small domain, so that
// chains are long, and builds the test indexes.
func chainRelation(tab *intern.Table, n int) *Relation {
	r := NewRelationWith(tab, "e", 2)
	for _, cols := range indexMasks {
		r.Index(cols)
	}
	for i := 0; i < n; i++ {
		r.InsertRow(idRow(tab, fmt.Sprintf("a%d", i%7), fmt.Sprintf("b%d", i%53)))
	}
	return r
}

// TestIndexChainsAscend checks the chains ascend after every append path,
// InsertRow and InsertBulk, and in a Clone.
func TestIndexChainsAscend(t *testing.T) {
	tab := intern.NewTable()
	r := chainRelation(tab, 200)
	checkChains(t, "InsertRow", r)

	var atoms []ast.Atom
	for i := 0; i < 300; i++ {
		atoms = append(atoms, ast.NewAtom("e", ast.S(fmt.Sprintf("a%d", i%11)), ast.S(fmt.Sprintf("c%d", i%17))))
	}
	flat := make([]ast.Term, 0, 2*len(atoms))
	for _, a := range atoms {
		flat = append(flat, a.Args...)
	}
	r.InsertBulk(atoms, tab.InternMany(flat))
	checkChains(t, "InsertBulk", r)

	c := r.Clone()
	checkChains(t, "Clone", c)
	c.InsertRow(idRow(tab, "a1", "z"))
	checkChains(t, "insert into the clone", c)
	checkChains(t, "original after inserting into the clone", r)
}

// TestLookupAfterSwapDeletes interleaves inserts and small deletions (each
// a swap-delete repairing the chains in place) and checks, after every step,
// that lookups return exactly the reference's positions in ascending order
// and that the chains still ascend.
func TestLookupAfterSwapDeletes(t *testing.T) {
	tab := intern.NewTable()
	rng := rand.New(rand.NewSource(5))
	r := chainRelation(tab, 400)
	for step := 0; step < 300; step++ {
		if rng.Intn(3) == 0 {
			r.InsertRow(idRow(tab, fmt.Sprintf("a%d", rng.Intn(7)), fmt.Sprintf("b%d", rng.Intn(40))))
		} else if r.Len() > 0 {
			pos := rng.Intn(r.Len())
			if n := r.DeleteRows([][]intern.ID{slices.Clone(r.Row(pos))}); n != 1 {
				t.Fatalf("step %d: DeleteRows removed %d rows, want 1", step, n)
			}
		}
		if r.indexes.Load() == nil {
			t.Fatalf("step %d: a small deletion dropped the indexes", step)
		}
		checkChains(t, fmt.Sprintf("step %d", step), r)
		for _, cols := range indexMasks {
			probe := r.Row(rng.Intn(r.Len()))
			ids := make([]intern.ID, len(cols))
			for k, c := range cols {
				ids[k] = probe[c]
			}
			var want []int
			for pos := 0; pos < r.Len(); pos++ {
				if rowMatches(r.Row(pos), cols, ids) {
					want = append(want, pos)
				}
			}
			if got := r.lookupIDs(cols, ids); !slices.Equal(got, want) {
				t.Fatalf("step %d: lookup on %v = %v, want %v", step, cols, got, want)
			}
		}
	}
}
