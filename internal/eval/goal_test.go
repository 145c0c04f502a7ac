package eval

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/counting"
	gms "repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/sip"
)

// dagComponents builds a par store of n disjoint 8-node DAGs: component k
// has nodes c<k>_0 … c<k>_7 and edges i→i+1 and i→i+2. Component 0 is the
// one the test queries; the others are unrelated to it.
func dagComponents(n int) *database.Store {
	edb := database.NewStore()
	for k := 0; k < n; k++ {
		for i := 0; i < 8; i++ {
			for _, j := range []int{i + 1, i + 2} {
				if j < 8 {
					edb.MustAddFact(ast.NewAtom("par",
						ast.S(fmt.Sprintf("c%d_%d", k, i)), ast.S(fmt.Sprintf("c%d_%d", k, j))))
				}
			}
		}
	}
	return edb
}

// goalRun rewrites anc(c0_0, Y) with rw, evaluates it over edb at the given
// parallelism and returns the stats and the number of answers.
func goalRun(t *testing.T, rw rewrite.Rewriter, edb *database.Store, parallelism int) (*Stats, int) {
	t.Helper()
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	q := parser.MustParseQuery("anc(c0_0, Y)")
	ad, err := adorn.Adorn(prog, q, sip.FullLeftToRight())
	if err != nil {
		t.Fatal(err)
	}
	res, err := rw.Rewrite(ad)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Prepare(res.Program, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	if !isChain(pp.plan) {
		t.Fatalf("%s: plan %v is not a chain; the inline worker would not run", rw.Name(), pp.plan)
	}
	store, stats, err := pp.Evaluate(edb, res.Seeds, Options{Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	return stats, CountAnswers(store, res.AnswerPred, res.AnswerPattern)
}

// TestMagicQueriesAreGoalDirected pins that a rewritten bound query does work
// proportional to the facts relevant to it, not to the size of the EDB: the
// same query over the same reachable component costs exactly the same join
// probes and derivations whether 4 or 64 unrelated components sit beside it
// in par. It also pins that the parallel evaluator's inline worker for chain
// plans does exactly the sequential work.
func TestMagicQueriesAreGoalDirected(t *testing.T) {
	rewriters := []rewrite.Rewriter{
		gms.New(gms.Options{}),
		supmagic.New(supmagic.Options{}),
		counting.New(counting.Options{}),
	}
	small, large := dagComponents(1+4), dagComponents(1+64)
	for _, rw := range rewriters {
		t.Run(rw.Name(), func(t *testing.T) {
			s, sAns := goalRun(t, rw, small, 1)
			l, lAns := goalRun(t, rw, large, 1)
			if sAns != 7 || lAns != 7 {
				t.Fatalf("answers = %d and %d, want 7", sAns, lAns)
			}
			if s.JoinProbes != l.JoinProbes || s.Derivations != l.Derivations {
				t.Errorf("4 unrelated components: %d probes, %d derivations; 64: %d probes, %d derivations",
					s.JoinProbes, s.Derivations, l.JoinProbes, l.Derivations)
			}

			p2, _ := goalRun(t, rw, large, 2)
			if p2.ParallelComponents == 0 {
				t.Fatal("Parallelism 2 did not run the parallel scheduler")
			}
			p2.ParallelComponents = 0
			if !reflect.DeepEqual(l, p2) {
				t.Errorf("stats differ:\nParallelism 1: %+v\nParallelism 2: %+v", *l, *p2)
			}
		})
	}
}
