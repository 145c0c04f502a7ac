package eval

// Tests for the exact-once semi-naive evaluation over row ranges: every
// satisfying body instantiation fires exactly once, whatever the rewriting,
// the executor or the parallelism; partitioned rounds do exactly the work of
// unpartitioned ones; and an evaluation's index counters are its own.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/rewrite/counting"
	gms "repro/internal/rewrite/magic"
	"repro/internal/rewrite/supmagic"
	"repro/internal/workload"
)

// countInstantiations counts, independently of the evaluators, the
// satisfying body instantiations of every rule of prog over store: one per
// choice of a tuple for each body literal that matches under the bindings
// of the literals before it. Each literal is instantiated and
// arithmetic-folded the way the term-space evaluator does it.
func countInstantiations(prog *ast.Program, store *database.Store) int64 {
	var n int64
	for _, r := range prog.Rules {
		var walk func(i int, s ast.Subst)
		walk = func(i int, s ast.Subst) {
			if i == len(r.Body) {
				n++
				return
			}
			rel := store.Existing(r.Body[i].PredKey())
			if rel == nil {
				return
			}
			inst := s.ApplyAtom(r.Body[i])
			for j, arg := range inst.Args {
				inst.Args[j] = ast.EvalArith(arg)
			}
			for _, t := range rel.Tuples() {
				s2 := s.Clone()
				if ast.MatchAtom(inst, t, s2) {
					walk(i+1, s2)
				}
			}
		}
		walk(0, ast.NewSubst())
	}
	return n
}

// exactCase is one program and database of the differential generators.
type exactCase struct {
	label string
	prog  *ast.Program
	edb   *database.Store
}

// exactCases collects the differential generators' programs: ancestor
// shapes and same generation over random and layered data, random flat
// rules, and the ancestor, same-generation and list programs under every
// rewriting.
func exactCases(t *testing.T) []exactCase {
	var cases []exactCase
	ancestor := parser.MustParseProgram(`
		a(X, Y) :- p(X, Y).
		a(X, Y) :- p(X, Z), a(Z, Y).
	`)
	nonlinear := parser.MustParseProgram(`
		a(X, Y) :- p(X, Y).
		a(X, Y) :- a(X, Z), a(Z, Y).
	`)
	sgSrc := parser.MustParseProgram(`
		sg(X, Y) :- flat(X, Y).
		sg(X, Y) :- up(X, Z1), sg(Z1, Z2), flat(Z2, Z3), sg(Z3, Z4), down(Z4, Y).
	`)
	for seed := 0; seed < 4; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		edb := randomEdgeStore(rng, "p", 4+rng.Intn(8), 6+rng.Intn(14))
		cases = append(cases,
			exactCase{fmt.Sprintf("linear/seed=%d", seed), ancestor, edb},
			exactCase{fmt.Sprintf("nonlinear/seed=%d", seed), nonlinear, edb})
		sg := workload.SameGenerationLayers(4+seed*2, 2+seed%2, seed%2 == 1)
		cases = append(cases, exactCase{fmt.Sprintf("sg/seed=%d", seed), sgSrc, sg.Store})
	}

	rewriters := []rewrite.Rewriter{
		gms.New(gms.Options{}),
		supmagic.New(supmagic.Options{}),
		counting.New(counting.Options{}),
		counting.New(counting.Options{Semijoin: true}),
		counting.NewSupplementary(counting.Options{}),
	}
	for _, rw := range rewriters {
		for seed := 0; seed < 3; seed++ {
			edb, _ := workload.ParentChain("p", 6+seed*3)
			prog, db := rewriteFor(t, ancestor, fmt.Sprintf("a(n%d, Y)", 1+seed), rw, edb)
			cases = append(cases, exactCase{fmt.Sprintf("%s/anc/seed=%d", rw.Name(), seed), prog, db})
		}
		sg := workload.SameGenerationLayers(4, 2, false)
		prog, db := rewriteFor(t, sgSrc, fmt.Sprintf("sg(%s, Y)", sg.Start), rw, sg.Store)
		cases = append(cases, exactCase{rw.Name() + "/sg", prog, db})
	}

	listSrc := parser.MustParseProgram(`
		append(V, [], [V]) :- elem(V).
		append(V, [W | X], [W | Y]) :- append(V, X, Y).
		reverse([], []) :- emptylist(X).
		reverse([V | X], Y) :- reverse(X, Z), append(V, Z, Y).
	`)
	for _, rw := range []rewrite.Rewriter{gms.New(gms.Options{}), supmagic.New(supmagic.Options{})} {
		wl := workload.List(5)
		prog, db := rewriteFor(t, listSrc, fmt.Sprintf("reverse(%s, Y)", wl.List), rw, wl.Store)
		cases = append(cases, exactCase{rw.Name() + "/list", prog, db})
	}

	vars := []string{"X", "Y", "Z"}
	for seed := 0; seed < 10; seed++ {
		rng := rand.New(rand.NewSource(int64(100 + seed)))
		preds := []string{"p", "d1", "d2"}
		var rules []ast.Rule
		for ri := 0; ri < 2+rng.Intn(3); ri++ {
			var body []ast.Atom
			for bi := 0; bi < 1+rng.Intn(3); bi++ {
				body = append(body, ast.NewAtom(preds[rng.Intn(len(preds))],
					ast.V(vars[rng.Intn(len(vars))]), ast.V(vars[rng.Intn(len(vars))])))
			}
			names := ast.SortedVarNames(ast.NewRule(ast.NewAtom("h"), body...).BodyVars())
			head := ast.NewAtom([]string{"d1", "d2"}[rng.Intn(2)],
				ast.V(names[rng.Intn(len(names))]), ast.V(names[rng.Intn(len(names))]))
			rules = append(rules, ast.NewRule(head, body...))
		}
		cases = append(cases, exactCase{fmt.Sprintf("flat/seed=%d", seed), ast.NewProgram(rules...), randomEdgeStore(rng, "p", 4, 8)})
	}
	return cases
}

// TestSemiNaiveFiresEachInstantiationOnce pins the exact-once property: on
// every program of the differential generators, under every rewriting, the
// semi-naive Derivations equal the number of satisfying body instantiations
// at the fixpoint — for the compiled executor at Parallelism 1 and 4 and
// for the term-space reference.
func TestSemiNaiveFiresEachInstantiationOnce(t *testing.T) {
	for _, c := range exactCases(t) {
		variants := []struct {
			name string
			opts Options
		}{
			{"compiled", Options{Parallelism: 1}},
			{"parallel", Options{Parallelism: 4}},
			{"term-space", Options{forceTermSpace: true}},
		}
		for _, v := range variants {
			store, stats, err := SemiNaive(v.opts).Evaluate(c.prog, c.edb)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.label, v.name, err)
			}
			if want := countInstantiations(c.prog, store); stats.Derivations != want {
				t.Errorf("%s/%s: %d derivations, %d satisfying instantiations at the fixpoint",
					c.label, v.name, stats.Derivations, want)
			}
		}
	}
}

// TestPartitionedRoundsMatchSequentialStats runs a transitive closure whose
// delta rounds pass partitionThreshold at Parallelism 1 and 8: the
// partitioned rounds must engage and, every instantiation firing exactly
// once in the shard owning its delta row, report exactly the statistics of
// the unpartitioned run.
func TestPartitionedRoundsMatchSequentialStats(t *testing.T) {
	prog := parser.MustParseProgram(`
		tc(X, Y) :- edge(X, Y).
		tc(X, Y) :- edge(X, Z), tc(Z, Y).
		tc(X, Y) :- tc(X, Z), edge(Z, Y), hub(Z).
	`)
	edb, _ := workload.RandomGraph("edge", 300, 600, 7)
	for i := 0; i < 300; i += 7 {
		edb.MustAddFact(ast.NewAtom("hub", ast.S(fmt.Sprintf("n%d", i))))
	}
	_, seq := evalAt(t, prog, edb, Options{}, 1)
	_, par := evalAt(t, prog, edb, Options{}, 8)
	if par.WorkerRounds == 0 {
		t.Fatal("no round was partitioned (WorkerRounds = 0)")
	}
	if seq.WorkerRounds != 0 || seq.ParallelComponents != 0 {
		t.Fatalf("Parallelism 1 reports WorkerRounds %d, ParallelComponents %d; want 0", seq.WorkerRounds, seq.ParallelComponents)
	}
	par.WorkerRounds, par.ParallelComponents = 0, 0
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("stats differ:\nParallelism 1: %+v\nParallelism 8: %+v", *seq, *par)
	}
}

// TestIndexCountersIgnoreConcurrentEvaluations checks that an evaluation's
// IndexProbes and IndexHits count its own lookups only: the same query
// reports the same counts alone and while another evaluation probes the
// same shared base relations.
func TestIndexCountersIgnoreConcurrentEvaluations(t *testing.T) {
	prog := parser.MustParseProgram(`
		anc(X, Y) :- par(X, Y).
		anc(X, Y) :- par(X, Z), anc(Z, Y).
	`)
	edb, _ := workload.RandomGraph("par", 200, 400, 3)
	pp, err := Prepare(prog, edb.Table())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Stats {
		_, stats, err := pp.Evaluate(edb, nil, Options{Parallelism: 1})
		if err != nil {
			t.Error(err)
		}
		return stats
	}
	alone := run()
	if alone.IndexProbes == 0 {
		t.Fatal("the evaluation made no index lookups")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				run()
			}
		}
	}()
	for i := 0; i < 5; i++ {
		if got := run(); got.IndexProbes != alone.IndexProbes || got.IndexHits != alone.IndexHits {
			t.Errorf("beside a concurrent evaluation: %d probes, %d hits; alone: %d, %d",
				got.IndexProbes, got.IndexHits, alone.IndexProbes, alone.IndexHits)
		}
	}
	close(stop)
	wg.Wait()
}
