// Package eval implements bottom-up (fixpoint) evaluation of Horn-clause
// programs over a database: the naive strategy and the semi-naive strategy.
//
// Bottom-up evaluation is the control strategy the paper's rewritings target
// (Sections 4-8): the rewritten program is evaluated by plain fixpoint
// iteration, and the sideways information passing chosen at rewrite time is
// what restricts the facts computed.
//
// The evaluators understand the interpreted arithmetic functors "+" and "*"
// in rule heads and bodies, which the counting rewritings use for their
// index fields; an arithmetic argument must be fully bound by the time it is
// needed (the generated counting rules guarantee this by placing the cnt/
// supcnt literal first).
package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
	"repro/internal/intern"
)

// ErrLimitExceeded is returned when evaluation exceeds the configured
// iteration or fact limit before reaching a fixpoint. The partially computed
// store and statistics are still returned; callers use this to observe the
// divergence of the counting methods on cyclic data (Theorem 10.3) without
// hanging.
var ErrLimitExceeded = errors.New("eval: limit exceeded before reaching a fixpoint")

// ErrNonGroundFact is returned when a rule derives a non-ground head, i.e.
// the program is unsafe for bottom-up evaluation (for example the raw list
// append program before magic rewriting).
var ErrNonGroundFact = errors.New("eval: rule derived a non-ground fact (unsafe program)")

// Options configure an evaluator.
type Options struct {
	// MaxIterations bounds the number of fixpoint iterations (0 = unlimited).
	// For the SCC-scheduled semi-naive evaluator the bound applies per
	// strongly connected component (the unit within which a diverging
	// program loops), so a wide stratified program with many components
	// does not trip it; for the naive evaluator it bounds whole-program
	// rounds as before.
	MaxIterations int
	// MaxFacts bounds the total number of derived facts (0 = unlimited).
	// Evaluation stops with ErrLimitExceeded when the bound is hit.
	MaxFacts int
	// MaxDerivations bounds the total number of rule firings, successful or
	// duplicate (0 = unlimited).
	MaxDerivations int64
	// StopEarly, when non-nil, is consulted between fixpoint rounds (before
	// the first pass of every component and before every delta round of the
	// semi-naive evaluator; before every iteration of the naive one). A true
	// result truncates the evaluation: the store computed so far is returned
	// with no error and Stats.StoppedEarly set. The facade uses it for
	// first-N answer streaming — evaluation stops as soon as the answer
	// relation holds enough tuples, instead of running the fixpoint to
	// completion.
	StopEarly func(store *database.Store) bool
	// StopEarlyPred names the derived predicate StopEarly probes (the answer
	// relation of a first-N query). The parallel evaluator uses it to keep
	// StopEarly's between-rounds contract exact under concurrency: only the
	// component that owns the predicate consults the callback at its round
	// boundaries while other components are in flight (any component may once
	// the owner is complete, and a predicate no component owns is frozen, so
	// everyone may). Setting StopEarly without StopEarlyPred is still valid —
	// the semi-naive evaluator then falls back to sequential execution, since
	// it cannot tell which in-progress relations the callback reads.
	StopEarlyPred string
	// Parallelism is the number of workers the semi-naive evaluator may use:
	// independent strongly connected components run concurrently, and large
	// delta rounds within a recursive component are hash-partitioned across
	// workers. 0 means GOMAXPROCS; 1 runs the exact sequential algorithm.
	// A plan whose components form a chain runs its components on the
	// calling goroutine; only its partitioned rounds use more workers.
	// The naive evaluator and the term-space reference evaluator are always
	// sequential regardless of this setting. Parallel evaluation derives the
	// same store as sequential evaluation; under MaxFacts/MaxDerivations the
	// point at which the limit error surfaces may differ by a bounded
	// overshoot (the limits are enforced globally at round barriers and every
	// ctxCheckInterval firings).
	Parallelism int
	// forceTermSpace disables the compiled ID-space join pipelines and
	// evaluates every rule with the substitution-based reference matcher.
	// It exists for the differential tests that prove the compiled executor
	// equivalent to the term-space one; production callers leave it false.
	forceTermSpace bool
}

// parallelism resolves Options.Parallelism to a worker count.
func (o Options) parallelism() int {
	if o.forceTermSpace {
		return 1
	}
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if o.Parallelism < 1 {
		return 1
	}
	return o.Parallelism
}

// Stats records the work done by an evaluation. The fact and derivation
// counters are the quantities the paper's optimality discussion (Section 9)
// and the performance study it cites ([5]) reason about.
type Stats struct {
	// Strategy is the name of the evaluator that produced the stats.
	Strategy string
	// Iterations is the number of fixpoint iterations performed.
	Iterations int
	// Derivations is the number of successful rule instantiations, including
	// ones that re-derive an already known fact.
	Derivations int64
	// NewFacts is the number of distinct derived facts added to the store.
	NewFacts int
	// JoinProbes counts tuple match attempts during body evaluation: every
	// candidate tuple the executor tested against a body literal, whether it
	// came from an indexed probe or a scan and whether or not the post-probe
	// filtering on the literal's free positions accepted it. It is an
	// executor-level counter; contrast IndexHits, which is the storage-level
	// count of tuples returned by indexed lookups only (so scans contribute
	// to JoinProbes but never to IndexHits, and the two coincide only when
	// every literal evaluation is index-driven).
	JoinProbes int64
	// RuleFirings counts successful instantiations per rule index; it has
	// one entry per rule of the evaluated program.
	RuleFirings []int64
	// FactsByPredicate counts the distinct derived facts per predicate key.
	FactsByPredicate map[string]int
	// Strata is the number of strongly connected components of the
	// derived-predicate dependency graph the semi-naive evaluator scheduled
	// (0 for the naive evaluator, which iterates over the whole program).
	Strata int
	// DeltaRuleEvals counts rule evaluations performed in delta iterations;
	// SkippedRuleEvals counts the rule/occurrence pairs the scheduler skipped
	// because the occurrence's predicate had an empty delta or belonged to an
	// already completed stratum.
	DeltaRuleEvals   int64
	SkippedRuleEvals int64
	// IndexProbes is the number of bound-column index lookups the evaluation
	// performed; IndexHits is the number of tuples those lookups returned
	// within the rows the occurrence reads. These are storage-level
	// counters: a JoinProbes match attempt fed by a scan appears in neither.
	// The evaluation counts them itself, so concurrent evaluations over the
	// same base store never see each other's lookups.
	IndexProbes int64
	IndexHits   int64
	// CompiledPlans counts the join pipelines compiled during this
	// evaluation (one per rule and delta-occurrence variant executed for the
	// first time), and PlanOps the total number of pipeline ops across them
	// (one per body step plus one head constructor each). An evaluation that
	// reuses a Prepared program's already compiled pipelines reports 0 for
	// both — which is how callers observe that the compile work was
	// amortized away.
	CompiledPlans int
	PlanOps       int
	// OpProbes counts executed pipeline probe ops (index-driven steps) and
	// OpScans executed scan ops (steps with no bound column). Together they
	// describe how often the compiled executor could drive a join through an
	// index versus falling back to scanning a relation.
	OpProbes int64
	OpScans  int64
	// StoppedEarly reports that Options.StopEarly truncated the evaluation
	// before it reached a fixpoint: the store holds a sound but possibly
	// incomplete set of derived facts.
	StoppedEarly bool
	// ParallelComponents is the number of components the parallel scheduler
	// ran (0 when evaluation was sequential — Parallelism 1, a naive or
	// term-space evaluation, or the sequential fallback for a StopEarly
	// callback with no StopEarlyPred). WorkerRounds counts the per-shard
	// round executions of hash-partitioned delta rounds: a partitioned round
	// with K shards adds K, a non-partitioned round adds nothing, so the
	// counter being positive is how callers observe that intra-round
	// partitioning actually engaged.
	ParallelComponents int
	WorkerRounds       int64
}

// addFiring records a successful rule instantiation.
func (s *Stats) addFiring(rule int) {
	s.RuleFirings[rule]++
	s.Derivations++
}

// merge folds a per-worker Stats into the aggregate. Each parallel worker
// (and each shard context of a partitioned round) counts into its own Stats
// with the ordinary unsynchronized paths; the scheduler calls merge under its
// own lock when the worker retires, so no counter is ever touched by two
// goroutines at once. NewFacts is summed here because workers insert into
// disjoint relations (per-component ownership) or private shards whose merge
// adds its own count; FactsByPredicate is left to finish, which reads the
// authoritative store.
func (s *Stats) merge(w *Stats) {
	s.Iterations += w.Iterations
	s.Derivations += w.Derivations
	s.NewFacts += w.NewFacts
	s.JoinProbes += w.JoinProbes
	for rule, n := range w.RuleFirings {
		s.RuleFirings[rule] += n
	}
	s.DeltaRuleEvals += w.DeltaRuleEvals
	s.SkippedRuleEvals += w.SkippedRuleEvals
	s.CompiledPlans += w.CompiledPlans
	s.PlanOps += w.PlanOps
	s.OpProbes += w.OpProbes
	s.OpScans += w.OpScans
	s.IndexProbes += w.IndexProbes
	s.IndexHits += w.IndexHits
	s.WorkerRounds += w.WorkerRounds
	if w.StoppedEarly {
		s.StoppedEarly = true
	}
}

// String renders a short human-readable summary.
func (s *Stats) String() string {
	return fmt.Sprintf("%s: %d iterations, %d derivations, %d new facts, %d join probes",
		s.Strategy, s.Iterations, s.Derivations, s.NewFacts, s.JoinProbes)
}

// Evaluator computes the fixpoint of a program over a database.
type Evaluator interface {
	// Evaluate runs the program to fixpoint over a copy-on-write overlay of
	// the database and returns the resulting store (base facts plus all
	// derived facts) and evaluation statistics. The input store's facts are
	// never modified; evaluation may build lazy bound-column indexes on its
	// relations, which later evaluations over the same store then reuse.
	Evaluate(p *ast.Program, edb *database.Store) (*database.Store, *Stats, error)
	// Name identifies the evaluator.
	Name() string
}

// Naive returns the naive bottom-up evaluator: every iteration re-evaluates
// every rule against the full store until no new facts appear.
func Naive(opts Options) Evaluator { return &naiveEvaluator{opts: opts} }

// SemiNaive returns the semi-naive bottom-up evaluator: the program is
// evaluated one strongly connected component of its dependency graph at a
// time (callees before callers), and within a recursive component a rule is
// re-evaluated only with at least one body occurrence restricted to the
// facts newly derived in the previous iteration of that component.
func SemiNaive(opts Options) Evaluator { return &semiNaiveEvaluator{opts: opts} }

type naiveEvaluator struct{ opts Options }

func (e *naiveEvaluator) Name() string { return "naive" }

type semiNaiveEvaluator struct{ opts Options }

func (e *semiNaiveEvaluator) Name() string { return "semi-naive" }

// variantKey identifies one compiled pipeline variant of a program: a rule
// index plus the delta position (-1 for the full-store variant).
type variantKey struct {
	rule  int
	delta int
}

// rangeKind says which rows of its relation a body occurrence reads in one
// rule variant. Within an evaluation every relation the evaluation writes is
// append-only, so a semi-naive round of a component is described by two row
// watermarks per component relation: lo, its length when the previous round
// started, and hi, its length when this round started. Rows [lo, hi) are the
// round's delta; rows a round derives land at hi or beyond and stay
// invisible until the next round.
type rangeKind uint8

const (
	// readWhole reads every row: base relations and relations of lower
	// components, which do not change while the component runs.
	readWhole rangeKind = iota
	// readOld reads [0, lo): a component occurrence before the delta
	// occurrence in textual order.
	readOld
	// readAll reads [0, hi): a component occurrence after the delta
	// occurrence, or any component occurrence in a first pass.
	readAll
	// readDelta reads [lo, hi): the delta occurrence.
	readDelta
)

// rangeKinds returns, per body position of rule ri, the rows the variant
// with its delta at deltaPos (-1 for a first pass) reads. This old/new split
// is what makes the evaluation exact: a body instantiation whose newest
// component fact arrived in round r fires in round r only, in the variant
// whose delta position is the first occurrence holding a fact of that round
// (the generalised differential method of Balbin and Ramamohanarao).
func (pp *Prepared) rangeKinds(ri, deltaPos int) []rangeKind {
	r := pp.program.Rules[ri]
	kinds := make([]rangeKind, len(r.Body))
	comp := &pp.plan.Components[pp.plan.PredComponent[r.Head.PredKey()]]
	for _, pos := range comp.DeltaPositions[ri] {
		switch {
		case deltaPos < 0 || pos > deltaPos:
			kinds[pos] = readAll
		case pos < deltaPos:
			kinds[pos] = readOld
		default:
			kinds[pos] = readDelta
		}
	}
	return kinds
}

// Prepared is the reusable compiled form of a program for bottom-up
// evaluation: the arity and derived-predicate maps, the dependency-graph
// schedule, the predicate numbering, and the ID-space join pipelines,
// computed once and shared by any number of evaluations — including
// concurrent ones — over stores that intern into the same symbol table. It
// is the unit a serving layer caches per query form so the compile work runs
// once while evaluation runs per call.
type Prepared struct {
	program *ast.Program
	arities map[string]int
	derived map[string]bool
	plan    *depgraph.Plan
	tab     *intern.Table

	// preds numbers every predicate the program mentions; compiled steps
	// and heads address their relations by this slot, and an evaluation
	// resolves the slots to relations once. bodySlots and headSlots give the
	// slot of every body literal and rule head, compSlots the slots of every
	// component's predicates.
	preds     []string
	slotOf    map[string]int
	bodySlots [][]int
	headSlots []int
	compSlots [][]int

	// overlays holds evaluation overlays handed back through Release, for
	// the next evaluation to reuse their relations' storage.
	overlays sync.Pool

	mu       sync.Mutex
	variants map[variantKey]*pipeline
}

// Prepare analyzes and readies a program for repeated evaluation over
// stores interning into tab. Pipelines are compiled lazily, on first
// execution of each rule variant, and then shared across evaluations.
func Prepare(p *ast.Program, tab *intern.Table) (*Prepared, error) {
	return PrepareWith(p, tab, nil)
}

// PrepareWith is Prepare with a precomputed dependency-graph plan for p: a
// caller that has already stratified the program (datalog.Compile analyzes a
// program once, at compile time) passes the plan in so preparing the same
// program for another symbol table does not re-run the SCC analysis. A nil
// plan is computed here, making Prepare a special case.
func PrepareWith(p *ast.Program, tab *intern.Table, plan *depgraph.Plan) (*Prepared, error) {
	arities, err := p.Arities()
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	if plan == nil {
		plan = depgraph.Analyze(p)
	}
	pp := &Prepared{
		program:  p,
		arities:  arities,
		derived:  p.DerivedPredicates(),
		plan:     plan,
		tab:      tab,
		slotOf:   make(map[string]int),
		variants: make(map[variantKey]*pipeline),
	}
	slot := func(key string) int {
		s, ok := pp.slotOf[key]
		if !ok {
			s = len(pp.preds)
			pp.slotOf[key] = s
			pp.preds = append(pp.preds, key)
		}
		return s
	}
	for _, r := range p.Rules {
		pp.headSlots = append(pp.headSlots, slot(r.Head.PredKey()))
		body := make([]int, len(r.Body))
		for i, lit := range r.Body {
			body[i] = slot(lit.PredKey())
		}
		pp.bodySlots = append(pp.bodySlots, body)
	}
	for _, comp := range plan.Components {
		slots := make([]int, len(comp.Preds))
		for i, key := range comp.Preds {
			slots[i] = slot(key)
		}
		pp.compSlots = append(pp.compSlots, slots)
	}
	return pp, nil
}

// Program returns the prepared program.
func (pp *Prepared) Program() *ast.Program { return pp.program }

// Release hands the store an evaluation of pp returned back for reuse: the
// next evaluation may empty its derived relations and fill them again
// instead of allocating fresh ones. The caller must not use the store, or
// any row or relation read from it, afterwards.
func (pp *Prepared) Release(store *database.Store) {
	if store != nil {
		pp.overlays.Put(store)
	}
}

// overlay returns a copy-on-write overlay of edb for one evaluation: a
// released one rebased onto edb when that is possible, a fresh one
// otherwise.
func (pp *Prepared) overlay(edb *database.Store) *database.Store {
	if st, ok := pp.overlays.Get().(*database.Store); ok && st.Rebase(edb) == nil {
		return st
	}
	return edb.Overlay()
}

// pipelineVariant returns the compiled pipeline for one rule variant,
// compiling it on first use; fresh reports whether this call performed the
// compilation (so per-evaluation stats count only new compile work).
func (pp *Prepared) pipelineVariant(ruleIdx, deltaPos int) (pl *pipeline, fresh bool) {
	key := variantKey{ruleIdx, deltaPos}
	pp.mu.Lock()
	defer pp.mu.Unlock()
	if pl, ok := pp.variants[key]; ok {
		return pl, false
	}
	pl = compileRule(pp, ruleIdx, deltaPos)
	pp.variants[key] = pl
	return pl, true
}

// runPipe pairs a shared compiled pipeline with this evaluation's private
// scratch state (register file, probe and head-row buffers), so concurrent
// evaluations can execute the same pipeline.
type runPipe struct {
	pl *pipeline
	sc *pipeScratch
}

// evalContext carries the shared machinery of both evaluators.
type evalContext struct {
	prep    *Prepared
	program *ast.Program
	store   *database.Store
	derived map[string]bool
	arities map[string]int
	opts    Options
	stats   *Stats
	// ctx is the caller's cancellation context. It is checked at every
	// fixpoint round and, through derivationTick, once every
	// ctxCheckInterval rule firings, so deadlines interrupt even a divergent
	// fixpoint whose individual rounds are long.
	ctx context.Context
	// bound memoizes, per pipeline variant, the shared pipeline paired with
	// this evaluation's scratch buffers.
	bound map[variantKey]*runPipe
	// reader is the lock-free view of the store's symbol table the compiled
	// pipelines execute against.
	reader intern.Reader
	// rels resolves the prepared program's predicate slots to this
	// evaluation's relations (nil for a predicate with no relation). The set
	// cannot change during the evaluation: derived relations are pre-created
	// and nothing else is written.
	rels []*database.Relation
	// lo and hi are the row watermarks of the running round, per slot (see
	// rangeKind); only the slots of the component being evaluated are set.
	lo, hi []int
	// live makes every occurrence read all rows present when the step
	// starts: the naive evaluator has no rounds to bound.
	live bool
	// shardW and shardK, with shardK > 0, make this context shard shardW of
	// a partitioned round: its delta occurrences read only every shardK-th
	// delta row (see inShard), and the derived rows the frozen main relation
	// does not hold go to out, one buffer per slot.
	shardW, shardK int
	out            []rowBuf
	// shards are the shard contexts of this context's partitioned rounds,
	// allocated on first use.
	shards []*evalContext
	// variants is the reusable list of the rule variants a delta round
	// fires.
	variants []variantKey
	// par links a forked worker context back to the shared state of a
	// parallel run (global limit counters, stop flag). nil in sequential
	// evaluation and in the root context of a parallel one.
	par *parRun
	// flushedDerivations/flushedFacts are the portions of this context's
	// local Derivations/NewFacts counters already published to the parallel
	// run's global atomics by parRun.tick; the next flush publishes only the
	// difference.
	flushedDerivations int64
	flushedFacts       int
}

// fork derives a worker context sharing the run's immutable machinery (store,
// prepared program, relations, reader — which self-refreshes per copy) but
// with private pipeline scratch, private Stats, private round watermarks
// and a link to the parallel run's shared state. Workers write only to
// relations their component owns, which is what makes the shared
// *database.Store safe without locking.
func (ctx *evalContext) fork(pr *parRun) *evalContext {
	w := *ctx
	w.bound = make(map[variantKey]*runPipe)
	w.stats = &Stats{
		Strategy:    ctx.stats.Strategy,
		RuleFirings: make([]int64, len(ctx.program.Rules)),
	}
	w.lo = make([]int, len(ctx.rels))
	w.hi = make([]int, len(ctx.rels))
	w.shards = nil
	w.variants = nil
	w.par = pr
	w.flushedDerivations = 0
	w.flushedFacts = 0
	return &w
}

func newContext(c context.Context, pp *Prepared, edb *database.Store, seeds []ast.Atom, opts Options, name string) (*evalContext, error) {
	if edb.Table() != pp.tab {
		return nil, fmt.Errorf("eval: store interns into a different symbol table than the prepared program")
	}
	if c == nil {
		c = context.Background()
	}
	ctx := &evalContext{
		prep:    pp,
		program: pp.program,
		store:   pp.overlay(edb),
		derived: pp.derived,
		arities: pp.arities,
		opts:    opts,
		ctx:     c,
		bound:   make(map[variantKey]*runPipe),
		stats: &Stats{
			Strategy:         name,
			RuleFirings:      make([]int64, len(pp.program.Rules)),
			FactsByPredicate: make(map[string]int),
		},
		rels: make([]*database.Relation, len(pp.preds)),
		lo:   make([]int, len(pp.preds)),
		hi:   make([]int, len(pp.preds)),
	}
	ctx.reader = ctx.store.Table().Reader()
	// Pre-create relations for every derived predicate so lookups during
	// body matching never fail on missing relations. On the overlay this is
	// also the copy-on-write point: every relation evaluation writes to
	// becomes private here, so the shared base store is never mutated.
	for key := range ctx.derived {
		if _, err := ctx.store.Relation(key, ctx.arities[key]); err != nil {
			return nil, fmt.Errorf("eval: %w", err)
		}
	}
	// Seed facts (the magic/counting seeds derived from a query's bound
	// constants) go straight into the overlay; like the pre-seeded stores of
	// the old clone-based API they are not counted as derived facts.
	for _, seed := range seeds {
		if _, err := ctx.store.AddFact(seed); err != nil {
			return nil, fmt.Errorf("eval: seed %s: %w", seed, err)
		}
	}
	for slot, key := range pp.preds {
		ctx.rels[slot] = ctx.store.Existing(key)
	}
	return ctx, nil
}

// pipelineFor returns the runnable pipeline for the rule and delta position,
// fetching (or compiling) the shared variant and binding it to this
// evaluation's scratch buffers on first use.
func (ctx *evalContext) pipelineFor(ruleIdx, deltaPos int) *runPipe {
	key := variantKey{ruleIdx, deltaPos}
	if rp, ok := ctx.bound[key]; ok {
		return rp
	}
	pl, fresh := ctx.prep.pipelineVariant(ruleIdx, deltaPos)
	if fresh {
		ctx.stats.CompiledPlans++
		ctx.stats.PlanOps += len(pl.steps) + 1 // body steps plus the head op
	}
	rp := &runPipe{pl: pl, sc: pl.newScratch()}
	ctx.bound[key] = rp
	return rp
}

// bounds returns the row range [lo, hi) an occurrence of the given kind
// reads from rel, the relation of the given slot.
func (ctx *evalContext) bounds(kind rangeKind, slot int, rel *database.Relation) (lo, hi int) {
	switch {
	case ctx.live || kind == readWhole:
		return 0, rel.Len()
	case kind == readOld:
		return 0, ctx.lo[slot]
	case kind == readAll:
		return 0, ctx.hi[slot]
	}
	return ctx.lo[slot], ctx.hi[slot]
}

// inShard reports whether the row at pos, read by an occurrence of the
// given kind, belongs to this context: every row does, except that shard w
// of k reads only the delta rows at positions congruent to w modulo k.
func (ctx *evalContext) inShard(kind rangeKind, pos int) bool {
	return ctx.shardK == 0 || kind != readDelta || pos%ctx.shardK == ctx.shardW
}

// countsOps reports whether this context counts the per-step op counters
// (OpScans, OpProbes, IndexProbes) of an occurrence of the given kind. The
// shards of a partitioned round each enter the delta occurrence exactly as
// often as the unpartitioned round would, so only shard 0 counts it; the
// per-row counters are split by the shard filter and sum exactly.
func (ctx *evalContext) countsOps(kind rangeKind) bool {
	return ctx.shardK == 0 || kind != readDelta || ctx.shardW == 0
}

// matchLiteral enumerates the substitutions extending s that satisfy the
// body literal against rows [lo, hi) of the given relation, invoking yield
// for each. The relation may be nil (no matches). It returns an error only
// for unresolved arithmetic arguments.
func (ctx *evalContext) matchLiteral(lit ast.Atom, rel *database.Relation, kind rangeKind, slot int, s ast.Subst, yield func(ast.Subst) error) error {
	if rel == nil {
		return nil
	}
	lo, hi := ctx.bounds(kind, slot, rel)
	// Instantiate the literal under the current substitution and normalize
	// arithmetic.
	inst := s.ApplyAtom(lit)
	cols := []int{}
	vals := []ast.Term{}
	for i, arg := range inst.Args {
		arg = ast.EvalArith(arg)
		inst.Args[i] = arg
		if ast.IsGround(arg) {
			if ast.ContainsArith(arg) {
				return fmt.Errorf("eval: argument %d of %s contains uninterpreted arithmetic after grounding", i, lit)
			}
			cols = append(cols, i)
			vals = append(vals, arg)
		}
	}
	if len(cols) > 0 {
		ctx.stats.IndexProbes++
	}
	// Lookup returns positions in ascending order.
	for _, pos := range rel.Lookup(cols, vals) {
		if pos < lo {
			continue
		}
		if pos >= hi {
			break
		}
		if len(cols) > 0 {
			ctx.stats.IndexHits++
		}
		tuple := rel.Tuple(pos)
		ctx.stats.JoinProbes++
		s2 := s.Clone()
		if ast.MatchAtom(inst, tuple, s2) {
			if err := yield(s2); err != nil {
				return err
			}
		}
	}
	return nil
}

// ruleEval evaluates one rule variant (the body literal at deltaPos, if >=
// 0, reading the round's delta rows; see rangeKinds) and calls emit for
// every derived ground head fact. It is the substitution-based reference
// evaluator: production evaluation goes through the compiled join pipelines
// (plan.go/compile.go), and the differential tests check the two agree.
func (ctx *evalContext) ruleEval(ruleIdx int, deltaPos int, emit func(ast.Atom) error) error {
	r := ctx.program.Rules[ruleIdx]
	kinds := ctx.prep.rangeKinds(ruleIdx, deltaPos)
	slots := ctx.prep.bodySlots[ruleIdx]
	var walk func(i int, s ast.Subst) error
	walk = func(i int, s ast.Subst) error {
		if i == len(r.Body) {
			head := s.ApplyAtom(r.Head)
			for j, arg := range head.Args {
				head.Args[j] = ast.EvalArith(arg)
			}
			if !ast.IsGroundAtom(head) {
				return fmt.Errorf("%w: rule %d (%s) produced %s", ErrNonGroundFact, ruleIdx, r, head)
			}
			ctx.stats.addFiring(ruleIdx)
			if ctx.opts.MaxDerivations > 0 && ctx.stats.Derivations > ctx.opts.MaxDerivations {
				return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, ctx.opts.MaxDerivations)
			}
			if err := ctx.derivationTick(); err != nil {
				return err
			}
			return emit(head)
		}
		return ctx.matchLiteral(r.Body[i], ctx.rels[slots[i]], kinds[i], slots[i], s, func(s2 ast.Subst) error {
			return walk(i+1, s2)
		})
	}
	return walk(0, ast.NewSubst())
}

// fireRule evaluates one rule variant — through its compiled join pipeline,
// or the substitution-based reference matcher when forceTermSpace is set —
// inserting every derived fact into the main store. A shard context of a
// partitioned round instead collects the derived rows the frozen main
// relation does not hold into its private buffers: nothing shared is
// written, so the shards run concurrently, and the duplicate filtering
// (which dominates the late rounds of a transitive closure) runs inside the
// parallel phase.
func (ctx *evalContext) fireRule(ruleIdx, deltaPos int) error {
	head := ctx.rels[ctx.prep.headSlots[ruleIdx]]
	if ctx.opts.forceTermSpace {
		return ctx.ruleEval(ruleIdx, deltaPos, func(a ast.Atom) error {
			added, err := head.Insert(database.Tuple(a.Args))
			if err != nil {
				return fmt.Errorf("eval: %w", err)
			}
			if added {
				ctx.stats.NewFacts++
			}
			return ctx.checkFactLimit()
		})
	}
	rp := ctx.pipelineFor(ruleIdx, deltaPos)
	if ctx.shardK > 0 {
		return rp.pl.run(ctx, rp.sc, head, &ctx.out[rp.pl.headSlot])
	}
	return rp.pl.run(ctx, rp.sc, head, nil)
}

func (ctx *evalContext) checkFactLimit() error {
	if ctx.opts.MaxFacts > 0 && ctx.stats.NewFacts > ctx.opts.MaxFacts {
		return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, ctx.opts.MaxFacts)
	}
	return nil
}

// ctxCheckInterval is how many rule firings may pass between two context
// checks inside a fixpoint round. It trades check overhead (one ctx.Err call
// per interval) against cancellation latency; at typical derivation rates an
// interval of 1024 keeps the latency well under a millisecond.
const ctxCheckInterval = 1024

// ctxErr returns the caller's cancellation, wrapped with the evaluator's
// prefix. ctx.Err() (not context.Cause) is wrapped so the documented
// errors.Is contract against context.Canceled / context.DeadlineExceeded
// holds even under context.WithCancelCause; it is deliberately NOT an
// ErrLimitExceeded: hitting a configured limit and being cancelled are
// different outcomes.
func (ctx *evalContext) ctxErr() error {
	if err := ctx.ctx.Err(); err != nil {
		return fmt.Errorf("eval: evaluation interrupted: %w", err)
	}
	return nil
}

// derivationTick is the per-N-derivation cancellation check, called on every
// rule firing next to the MaxDerivations limit check. In a parallel run it
// additionally flushes the worker's local counters to the run's global limit
// atomics and observes the cooperative stop flag.
func (ctx *evalContext) derivationTick() error {
	if ctx.stats.Derivations%ctxCheckInterval == 0 {
		if ctx.par != nil {
			if err := ctx.par.tick(ctx); err != nil {
				return err
			}
		}
		return ctx.ctxErr()
	}
	return nil
}

// stopRequested consults Options.StopEarly between fixpoint rounds.
func (ctx *evalContext) stopRequested() bool {
	if ctx.opts.StopEarly != nil && ctx.opts.StopEarly(ctx.store) {
		ctx.stats.StoppedEarly = true
		return true
	}
	return false
}

// finish fills the derived-fact counts and returns the final result.
func (ctx *evalContext) finish(err error) (*database.Store, *Stats, error) {
	for key := range ctx.derived {
		ctx.stats.FactsByPredicate[key] = ctx.rels[ctx.prep.slotOf[key]].Len()
	}
	return ctx.store, ctx.stats, err
}

// Evaluate implements Evaluator for the naive strategy.
func (e *naiveEvaluator) Evaluate(p *ast.Program, edb *database.Store) (*database.Store, *Stats, error) {
	pp, err := Prepare(p, edb.Table())
	if err != nil {
		return nil, nil, err
	}
	return pp.EvaluateNaive(edb, nil, e.opts)
}

// EvaluateNaive runs the naive strategy over an overlay of edb extended
// with the seed facts. See Evaluate for the overlay contract. It is
// EvaluateNaiveCtx with a background context.
func (pp *Prepared) EvaluateNaive(edb *database.Store, seeds []ast.Atom, opts Options) (*database.Store, *Stats, error) {
	return pp.EvaluateNaiveCtx(context.Background(), edb, seeds, opts)
}

// EvaluateNaiveCtx is EvaluateNaive under a cancellation context: the
// context is checked before every whole-program round and once every
// ctxCheckInterval rule firings within a round, and its error (wrapped, and
// distinct from ErrLimitExceeded) is returned together with the partial
// store when the evaluation is cancelled or times out.
func (pp *Prepared) EvaluateNaiveCtx(c context.Context, edb *database.Store, seeds []ast.Atom, opts Options) (*database.Store, *Stats, error) {
	ctx, err := newContext(c, pp, edb, seeds, opts, "naive")
	if err != nil {
		return nil, nil, err
	}
	ctx.live = true
	for {
		if err := ctx.ctxErr(); err != nil {
			return ctx.finish(err)
		}
		if ctx.stopRequested() {
			return ctx.finish(nil)
		}
		ctx.stats.Iterations++
		if opts.MaxIterations > 0 && ctx.stats.Iterations > opts.MaxIterations {
			return ctx.finish(fmt.Errorf("%w: more than %d iterations", ErrLimitExceeded, opts.MaxIterations))
		}
		before := ctx.stats.NewFacts
		for i := range pp.program.Rules {
			if err := ctx.fireRule(i, -1); err != nil {
				return ctx.finish(err)
			}
		}
		if ctx.stats.NewFacts == before {
			return ctx.finish(nil)
		}
	}
}

// Evaluate implements Evaluator for the semi-naive strategy. The program is
// decomposed into the strongly connected components of its derived-predicate
// dependency graph (see internal/depgraph) and evaluated one component at a
// time in topological order: by the time a component is scheduled, every
// predicate it depends on from earlier components is complete, so a single
// pass over the component's rules suffices for non-recursive components, and
// recursive components iterate with deltas restricted to their own
// predicates. Within the delta loop, a rule is re-fired only through body
// occurrences of same-component predicates whose delta is non-empty.
func (e *semiNaiveEvaluator) Evaluate(p *ast.Program, edb *database.Store) (*database.Store, *Stats, error) {
	pp, err := Prepare(p, edb.Table())
	if err != nil {
		return nil, nil, err
	}
	return pp.Evaluate(edb, nil, e.opts)
}

// Evaluate runs the semi-naive strategy over a copy-on-write overlay of edb
// extended with the seed facts: the base store's facts are shared, not
// copied, and only the derived (and seeded) relations are private to this
// evaluation. It is safe to call concurrently from multiple goroutines over
// the same base store, provided nothing mutates the base while evaluations
// are in flight; the compiled pipelines are shared, each evaluation gets
// its own register scratch. It is EvaluateCtx with a background context.
func (pp *Prepared) Evaluate(edb *database.Store, seeds []ast.Atom, opts Options) (*database.Store, *Stats, error) {
	return pp.EvaluateCtx(context.Background(), edb, seeds, opts)
}

// EvaluateCtx is Evaluate under a cancellation context. The context is
// checked before every component pass and every delta round, and once every
// ctxCheckInterval rule firings within a round, so request deadlines
// interrupt divergent fixpoints promptly; the wrapped context error is
// distinct from ErrLimitExceeded and returned together with the partially
// computed store. Options.StopEarly is likewise consulted between rounds.
func (pp *Prepared) EvaluateCtx(c context.Context, edb *database.Store, seeds []ast.Atom, opts Options) (*database.Store, *Stats, error) {
	// Dispatch to the parallel scheduler when more than one worker is allowed
	// and StopEarly's between-rounds contract can be kept exact (see
	// Options.StopEarlyPred). P=1 — and the fallback — run the components
	// in order on the calling goroutine, never partitioning a round.
	if p := opts.parallelism(); p > 1 {
		if opts.StopEarly == nil || opts.StopEarlyPred != "" {
			return pp.evaluateParallel(c, edb, seeds, opts, p)
		}
	}
	ctx, err := newContext(c, pp, edb, seeds, opts, "semi-naive")
	if err != nil {
		return nil, nil, err
	}
	ctx.stats.Strata = pp.plan.Strata()
	for ci := range pp.plan.Components {
		stop, err := ctx.runComponent(ci)
		if err != nil || stop {
			return ctx.finish(err)
		}
	}
	return ctx.finish(nil)
}

// beforeRound runs the checks due before a component's first pass and
// before each of its delta rounds: cancellation, the parallel run's stop
// flag, and Options.StopEarly (only where parRun.stopSafe allows it). stop
// reports that StopEarly truncated the evaluation.
func (ctx *evalContext) beforeRound(ci int) (stop bool, err error) {
	if err := ctx.ctxErr(); err != nil {
		return false, err
	}
	if pr := ctx.par; pr != nil {
		if pr.stop.Load() {
			return false, errStopParallel
		}
		if !pr.stopSafe(ci) {
			return false, nil
		}
	}
	if ctx.stopRequested() {
		if ctx.par != nil {
			ctx.par.stop.Store(true)
		}
		return true, nil
	}
	return false, nil
}

// runComponent evaluates component ci to fixpoint: a first pass over its
// rules reading every row present when it starts, then, for a recursive
// component, delta rounds until a round derives nothing. Each round first
// moves the watermarks of the component's relations (lo to the previous
// round's hi, hi to the current length) and then fires, for every
// occurrence of a component predicate with a non-empty delta, the rule
// variant driven from it. A round with at least partitionThreshold delta
// rows is split across shards when the evaluation runs with more than one
// worker. MaxIterations bounds the passes per component, so the limit keeps
// its meaning of "how long may a fixpoint loop run" rather than scaling
// with the number of strata; the first pass can never trip it.
func (ctx *evalContext) runComponent(ci int) (stop bool, err error) {
	pp := ctx.prep
	comp := &pp.plan.Components[ci]
	slots := pp.compSlots[ci]
	if stop, err := ctx.beforeRound(ci); stop || err != nil {
		return stop, err
	}
	for _, s := range slots {
		n := ctx.rels[s].Len()
		ctx.lo[s], ctx.hi[s] = n, n
	}
	ctx.stats.Iterations++
	for _, ri := range comp.Rules {
		if err := ctx.fireRule(ri, -1); err != nil {
			return false, err
		}
	}
	if err := ctx.afterRound(); err != nil {
		return false, err
	}
	if !comp.Recursive {
		return false, nil
	}
	for rounds := 2; ; rounds++ {
		total := 0
		for _, s := range slots {
			ctx.lo[s], ctx.hi[s] = ctx.hi[s], ctx.rels[s].Len()
			total += ctx.hi[s] - ctx.lo[s]
		}
		if total == 0 {
			return false, nil
		}
		if stop, err := ctx.beforeRound(ci); stop || err != nil {
			return stop, err
		}
		ctx.stats.Iterations++
		if max := ctx.opts.MaxIterations; max > 0 && rounds > max {
			return false, fmt.Errorf("%w: more than %d iterations", ErrLimitExceeded, max)
		}
		variants := ctx.variants[:0]
		for _, ri := range comp.Rules {
			for _, pos := range comp.DeltaPositions[ri] {
				if s := pp.bodySlots[ri][pos]; ctx.hi[s] == ctx.lo[s] {
					ctx.stats.SkippedRuleEvals++
					continue
				}
				ctx.stats.DeltaRuleEvals++
				variants = append(variants, variantKey{ri, pos})
			}
		}
		ctx.variants = variants
		if ctx.par != nil && total >= partitionThreshold {
			err = ctx.partitionedRound(variants)
		} else {
			for _, v := range variants {
				if err = ctx.fireRule(v.rule, v.delta); err != nil {
					break
				}
			}
		}
		if err != nil {
			return false, err
		}
		if err := ctx.afterRound(); err != nil {
			return false, err
		}
	}
}

// afterRound publishes a parallel worker's counters at a round barrier,
// enforcing the run's global limits.
func (ctx *evalContext) afterRound() error {
	if ctx.par != nil {
		return ctx.par.tick(ctx)
	}
	return nil
}

// answerSelection locates the tuples of the given relation that match the
// query atom (whose ground arguments act as selections), returning the
// relation, the matching positions in insertion order, and the query's free
// positions. A nil relation means no answers.
func answerSelection(store *database.Store, predKey string, query ast.Atom) (*database.Relation, []int, []int) {
	rel := store.Existing(predKey)
	if rel == nil {
		return nil, nil, nil
	}
	var cols []int
	var vals []ast.Term
	var freePos []int
	for i, arg := range query.Args {
		if ast.IsGround(arg) {
			cols = append(cols, i)
			vals = append(vals, arg)
		} else {
			freePos = append(freePos, i)
		}
	}
	return rel, rel.Lookup(cols, vals), freePos
}

// Answers selects from the store the tuples of the given relation that match
// the query atom (whose ground arguments act as selections) and returns them
// projected onto the query's free positions, in insertion order. It is used
// to read query answers out of an evaluated store.
func Answers(store *database.Store, predKey string, query ast.Atom) []database.Tuple {
	rel, positions, freePos := answerSelection(store, predKey, query)
	if rel == nil {
		return nil
	}
	var out []database.Tuple
	for _, pos := range positions {
		t := rel.Tuple(pos)
		proj := make(database.Tuple, len(freePos))
		for j, p := range freePos {
			proj[j] = t[p]
		}
		out = append(out, proj)
	}
	return out
}

// AnswerRows is Answers at the ID level: the matching tuples are returned as
// rows of interned IDs projected onto the query's free positions, without
// materializing any terms. The facade builds its typed values directly from
// these IDs (the store's symbol table is append-only, so the rows remain
// valid after the evaluation's overlay is discarded). limit > 0 caps the
// number of rows returned.
func AnswerRows(store *database.Store, predKey string, query ast.Atom, limit int) [][]intern.ID {
	rel, positions, freePos := answerSelection(store, predKey, query)
	if rel == nil {
		return nil
	}
	if limit > 0 && len(positions) > limit {
		positions = positions[:limit]
	}
	out := make([][]intern.ID, 0, len(positions))
	for _, pos := range positions {
		row := rel.Row(pos)
		proj := make([]intern.ID, len(freePos))
		for j, p := range freePos {
			proj[j] = row[p]
		}
		out = append(out, proj)
	}
	return out
}

// CountAnswers returns the number of stored tuples matching the query atom,
// without materializing or projecting anything. It is the predicate the
// facade's first-N early termination evaluates between fixpoint rounds.
func CountAnswers(store *database.Store, predKey string, query ast.Atom) int {
	rel, positions, _ := answerSelection(store, predKey, query)
	if rel == nil {
		return 0
	}
	return len(positions)
}

// AnswerSet returns the answers as a set of canonical tuple keys, for
// order-independent comparison between strategies in tests and experiments.
func AnswerSet(store *database.Store, predKey string, query ast.Atom) map[string]bool {
	set := make(map[string]bool)
	for _, t := range Answers(store, predKey, query) {
		set[t.Key()] = true
	}
	return set
}
