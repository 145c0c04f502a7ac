// Prepared queries: the serving layer of the engine.
//
// The paper's division of labor is that adornment and rewriting happen once
// per query *form* — a predicate plus a binding pattern — while evaluation
// cost varies with the data and the bound constants. PreparedQuery is that
// division made operational: Engine.Prepare runs parse → adorn → rewrite →
// simplify → compile exactly once and keeps the result; PreparedQuery.Run
// re-instantiates only the seed facts and the answer selection for each
// call's constants and evaluates the precompiled pipelines against a
// copy-on-write overlay of the engine's store. Engine.Query uses the same
// machinery transparently through a per-engine LRU keyed by query form.
package datalog

import (
	"container/list"
	"context"
	"fmt"
	"iter"
	"strings"
	"sync"

	"repro/internal/adorn"
	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/rewrite"
	"repro/internal/topdown"
)

// preparedForm holds the per-form artifacts shared by every PreparedQuery
// handle of one query form: everything that depends only on the predicate,
// the binding pattern and the form-shaping options — never on a particular
// call's constants or runtime limits.
type preparedForm struct {
	adorned        *adorn.Program     // top-down and rewriting strategies
	rewriting      *rewrite.Rewriting // rewriting strategies
	prepared       *eval.Prepared     // bottom-up strategies (original or rewritten program)
	safety         *SafetyReport
	rewrittenSrc   string
	rewrittenRules int
	// derivedKeys/auxKeys split the evaluated program's derived predicates
	// for the per-run fact counting (aux = the rewriting's magic/sup/cnt
	// predicates), precomputed so Run does not re-walk the program.
	derivedKeys []string
	auxKeys     []string
	// divergenceFallback records that a counting strategy was requested but
	// the form was prepared with the equivalent magic rewriting because the
	// Theorem 10.3 analysis proved counting divergent (see
	// Options.OnDivergence); surfaced as Stats.DivergenceFallback.
	divergenceFallback bool
}

// PreparedQuery is a query form compiled once for repeated evaluation: the
// adorned program, the rewriting, and the bottom-up join pipelines are
// built at Prepare time and shared by every Run — including concurrent
// ones — while each Run supplies its own bound constants and reads through
// the view it was prepared on: the engine's current facts (Engine.Prepare),
// or a pinned snapshot (Snapshot.Prepare). The handle itself additionally
// carries the constants of the prepared query text (the defaults of Run())
// and the caller's runtime limits, so two Prepare calls sharing a form
// still run with their own constants and limits.
//
// An engine-bound handle is pinned to the program it was prepared against:
// after Engine.SetProgram its runs fail closed with ErrStaleProgram.
// Snapshot-bound handles never go stale (the snapshot pins its program).
type PreparedQuery struct {
	// view is where runs read their facts (live engine or snapshot); an
	// engine view also carries the program pin the staleness check compares
	// against.
	view runView
	// prog identifies the program the form was prepared from, for the
	// materialized-view fast path only (it matches by pointer against the
	// view's registration; staleness is the view's concern, not this
	// field's).
	prog *Program
	opts Options
	// atom is the parsed query atom; its ground arguments are the default
	// bound constants of Run().
	atom ast.Atom
	// boundPos lists the positions of the atom's ground arguments, in
	// order; Run's arguments replace them positionally.
	boundPos []int
	// form is the shared per-form preparation (cached on the program).
	form *preparedForm
}

// Prepare compiles a query form once — parse, adorn, rewrite, simplify and
// the bottom-up plan analysis all happen here — so that Run only evaluates.
// The form is keyed by predicate, binding pattern, strategy and sip policy
// and cached on the engine's current program, so preparing the same form
// twice returns the cached preparation. The query's constants become the
// default arguments of Run; runs with different constants reuse the same
// compiled form, because the rewritten program depends only on the form
// (the constants occur only in the seed facts and the answer selection).
// The handle reads the engine's live facts and is pinned to the program it
// was prepared against — see PreparedQuery.
func (e *Engine) Prepare(querySrc string, opts Options) (*PreparedQuery, error) {
	q, err := parser.ParseQuery(querySrc)
	if err != nil {
		return nil, fmt.Errorf("datalog: %w", err)
	}
	if err := normalizeOptions(&opts); err != nil {
		return nil, err
	}
	prog := e.prog.Load()
	form, _, err := prog.preparedFor(q, opts, e.db.store.Table())
	if err != nil {
		return nil, err
	}
	return handleFor(engineView{eng: e, prog: prog}, prog, form, q, opts), nil
}

// normalizeOptions validates the options (see Options.Validate) and
// resolves the zero values of the form-shaping ones to their documented
// defaults, so equivalent option sets share one cached form ({} and
// {Strategy: MagicSets, Sip: SipFull} are the same form).
func normalizeOptions(opts *Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if opts.Strategy == "" {
		opts.Strategy = MagicSets
	}
	if opts.Sip == "" {
		opts.Sip = SipFull
	}
	if opts.OnDivergence == "" {
		opts.OnDivergence = DivergenceFallback
	}
	return nil
}

// Run evaluates the prepared query against the engine's current facts. It
// is RunCtx with a background context.
func (pq *PreparedQuery) Run(args ...any) (*Result, error) {
	return pq.RunCtx(context.Background(), args...)
}

// RunCtx evaluates the prepared query against the engine's current facts,
// under the caller's context: a deadline or cancellation interrupts the
// evaluation and the returned error wraps ctx.Err(), distinct from
// ErrLimitExceeded. With no arguments the constants of the prepared query
// text are used; with arguments, they replace the query's bound constants
// positionally (strings become symbolic constants, int/int64 become
// integers, exactly as in Engine.Assert). RunCtx is safe for concurrent
// use, also with other prepared queries and with Engine.Query;
// Engine.Assert and Engine.Retract block until in-flight runs finish and
// vice versa.
func (pq *PreparedQuery) RunCtx(ctx context.Context, args ...any) (*Result, error) {
	bound, err := pq.resolveArgs(args)
	if err != nil {
		return nil, err
	}
	return pq.runMaterialized(ctx, bound, pq.opts, true)
}

// Stream evaluates the prepared query and returns a cursor over its
// answers: an iterator yielding one typed Row per answer, in discovery
// order, without ever rendering values to strings. Combined with
// Options.FirstN the evaluation itself is cut off as soon as enough answers
// exist, so the time to the first yielded row of a point query is the time
// to derive one answer, not the whole answer set. The engine's read lock is
// released before the first yield, so a consumer may process rows at its
// own pace (the yielded values remain valid indefinitely).
//
// Evaluation errors — a context cancellation, an exceeded limit — are
// yielded as the final (nil, err) pair after the sound answers found before
// the interruption; a break inside the loop simply abandons the rest.
func (pq *PreparedQuery) Stream(ctx context.Context, args ...any) iter.Seq2[Row, error] {
	return func(yield func(Row, error) bool) {
		bound, err := pq.resolveArgs(args)
		if err != nil {
			yield(nil, err)
			return
		}
		_, rows, err := pq.runCore(ctx, bound, pq.opts, true)
		for _, row := range rows {
			if !yield(row, nil) {
				return
			}
		}
		if err != nil {
			yield(nil, err)
		}
	}
}

// resolveArgs maps RunCtx/Stream arguments onto the query form's bound
// constants, defaulting to the constants of the prepared query text.
func (pq *PreparedQuery) resolveArgs(args []any) ([]ast.Term, error) {
	if len(args) == 0 {
		return pq.boundConstants(), nil
	}
	terms, err := constantTerms(args)
	if err != nil {
		return nil, err
	}
	if len(terms) != len(pq.boundPos) {
		return nil, fmt.Errorf("datalog: query form %s has %d bound argument(s), got %d",
			pq.atom.Pred, len(pq.boundPos), len(terms))
	}
	return terms, nil
}

// boundConstants returns the ground arguments of the prepared query atom.
func (pq *PreparedQuery) boundConstants() []ast.Term {
	out := make([]ast.Term, len(pq.boundPos))
	for k, pos := range pq.boundPos {
		out[k] = pq.atom.Args[pos]
	}
	return out
}

// atomWith returns the query atom with the bound positions replaced by the
// given constants.
func (pq *PreparedQuery) atomWith(bound []ast.Term) ast.Atom {
	args := append([]ast.Term(nil), pq.atom.Args...)
	for k, pos := range pq.boundPos {
		args[pos] = bound[k]
	}
	return ast.Atom{Pred: pq.atom.Pred, Adorn: pq.atom.Adorn, Args: args}
}

// termOf converts one Assert/Run-style constant argument to a term — the
// single definition of the public argument-conversion contract, shared by
// the one-shot converter (constantTerms) and the transaction buffer
// (Txn.bufTerms).
func termOf(a any) (ast.Term, error) {
	switch v := a.(type) {
	case string:
		return ast.S(v), nil
	case int:
		return ast.I(int64(v)), nil
	case int64:
		return ast.I(v), nil
	default:
		return nil, fmt.Errorf("datalog: unsupported argument type %T", a)
	}
}

// constantTerms converts Assert/Run-style constant arguments to terms.
func constantTerms(args []any) ([]ast.Term, error) {
	terms := make([]ast.Term, len(args))
	for i, a := range args {
		t, err := termOf(a)
		if err != nil {
			return nil, err
		}
		terms[i] = t
	}
	return terms, nil
}

// formKey encodes the query form — everything that determines the prepared
// artifacts: evaluation options that shape the rewriting, the predicate and
// the binding pattern. The constants themselves are deliberately absent:
// forms differing only in constants share one preparation. The direct
// strategies prepare the whole unrewritten program, which is independent of
// the query entirely, so their forms are keyed by strategy alone and every
// direct query shares one preparation.
func formKey(q ast.Query, opts Options) string {
	if opts.Strategy == Naive || opts.Strategy == SemiNaive {
		return string(opts.Strategy) + "|direct"
	}
	var b strings.Builder
	b.WriteString(string(opts.Strategy))
	b.WriteByte('|')
	b.WriteString(string(opts.Sip))
	b.WriteByte('|')
	if opts.Semijoin {
		b.WriteByte('j')
	}
	if opts.KeepAllGuards {
		b.WriteByte('g')
	}
	if opts.Simplify {
		b.WriteByte('s')
	}
	if opts.Strategy == Counting || opts.Strategy == SupplementaryCounting {
		// The divergence policy changes what gets prepared for the counting
		// strategies (fallback swaps in the magic rewriting); other
		// strategies ignore it, and including it there would only split
		// their caches.
		b.WriteByte('|')
		b.WriteString(string(opts.OnDivergence))
	}
	b.WriteByte('|')
	b.WriteString(q.Atom.Pred)
	b.WriteByte('/')
	for _, arg := range q.Atom.Args {
		if ast.IsGround(arg) {
			b.WriteByte('b')
		} else {
			b.WriteByte('f')
		}
	}
	return b.String()
}

// planCacheCap bounds the number of prepared query forms the engine keeps;
// beyond it the least recently used form is evicted (a workload usually has
// few forms, so the cap only guards against unbounded ad-hoc query shapes).
const planCacheCap = 128

// planCache is the engine's LRU of prepared query forms, with a
// single-flight on cold misses: concurrent first queries of one form share
// a single build instead of each paying the full
// parse/adorn/rewrite/compile pipeline.
type planCache struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	order    *list.List // front = most recently used
	building map[string]*buildSlot
}

type cacheEntry struct {
	key  string
	form *preparedForm
}

// buildSlot is one in-flight form build; losers of the insert race wait on
// the winner's once instead of rebuilding.
type buildSlot struct {
	once sync.Once
	form *preparedForm
	err  error
}

func newPlanCache() *planCache {
	return &planCache{
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		building: make(map[string]*buildSlot),
	}
}

// getOrBuild returns the cached form for key, or runs build exactly once
// (across concurrent callers) and caches its result. hit reports whether
// this caller reused an existing or in-flight preparation rather than
// performing the build itself. Failed builds are not cached: the next
// caller wave retries.
func (c *planCache) getOrBuild(key string, build func() (*preparedForm, error)) (form *preparedForm, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return el.Value.(*cacheEntry).form, true, nil
	}
	slot, waiting := c.building[key]
	if !waiting {
		slot = &buildSlot{}
		c.building[key] = slot
	}
	c.mu.Unlock()

	slot.once.Do(func() { slot.form, slot.err = build() })

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.building[key] == slot {
		delete(c.building, key)
		if slot.err == nil {
			if _, ok := c.entries[key]; !ok {
				c.entries[key] = c.order.PushFront(&cacheEntry{key: key, form: slot.form})
				for c.order.Len() > planCacheCap {
					oldest := c.order.Back()
					c.order.Remove(oldest)
					delete(c.entries, oldest.Value.(*cacheEntry).key)
				}
			}
		}
	}
	return slot.form, waiting, slot.err
}

// handleFor wraps the shared per-form artifacts in a PreparedQuery carrying
// this caller's query constants, options and read view: two Prepare calls
// that share a form still run with their own constants and runtime limits,
// and against their own view (live engine or pinned snapshot).
func handleFor(view runView, prog *Program, form *preparedForm, q ast.Query, opts Options) *PreparedQuery {
	pq := &PreparedQuery{view: view, prog: prog, opts: opts, atom: q.Atom, form: form}
	for i, arg := range q.Atom.Args {
		if ast.IsGround(arg) {
			pq.boundPos = append(pq.boundPos, i)
		}
	}
	return pq
}

// runMaterialized evaluates the prepared form and fills Result.Answers —
// the typed values plus the deprecated rendered view — from the answer
// rows. Streaming goes through runCore directly and skips the rendering.
func (pq *PreparedQuery) runMaterialized(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, error) {
	res, rows, err := pq.runCore(ctx, bound, opts, cacheHit)
	if res != nil {
		res.Answers = answersFromRows(rows)
	}
	return res, err
}

// runCore evaluates the prepared form for one set of bound constants and
// returns the result shell (stats, rewriting echo, safety) alongside the
// typed answer rows. opts carries the caller's run-time limits; its
// form-shaping fields are the ones the form was prepared with. cacheHit is
// surfaced as Stats.PlanCacheHit.
func (pq *PreparedQuery) runCore(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, error) {
	for i, t := range bound {
		if !ast.IsGround(t) {
			return nil, nil, fmt.Errorf("datalog: bound argument %d (%s) is not ground", i, t)
		}
	}
	if res, rows, ok, err := pq.runLookup(bound, opts, cacheHit); ok {
		return res, rows, err
	}
	switch pq.opts.Strategy {
	case Naive, SemiNaive:
		return pq.runDirect(ctx, bound, opts, cacheHit)
	case TopDown:
		return pq.runTopDown(ctx, bound, opts, cacheHit)
	default:
		return pq.runRewritten(ctx, bound, opts, cacheHit)
	}
}

// runLookup is the materialized-view fast path: when the view's store keeps
// a materialization of exactly this query's program (Database.Materialize)
// covering the queried predicate, the answer is read straight out of the
// stored IDB relation — a pure index lookup, no evaluation — and ok reports
// that the result is final. Any mismatch (no registration, a different
// program, a base predicate, Options.NoMaterialize) falls through to the
// strategy dispatch with ok=false. The whole-strategy semantics are
// preserved because the maintained IDB is, by the maintenance invariant,
// exactly the fixpoint a from-scratch evaluation would compute.
func (pq *PreparedQuery) runLookup(bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, bool, error) {
	if opts.NoMaterialize || pq.prog == nil {
		return nil, nil, false, nil
	}
	store, mat, release, err := pq.view.acquire()
	if err != nil {
		// A stale prepared query fails identically on every path.
		return nil, nil, true, err
	}
	atom := pq.atomWith(bound)
	key := atom.PredKey()
	if mat == nil || mat.prog != pq.prog || !mat.derived[key] {
		release()
		return nil, nil, false, nil
	}
	rows := pq.answerRows(store, key, atom, opts.FirstN)
	facts := store.FactCount(key)
	release()
	mat.hits.Add(1)
	res := &Result{Safety: pq.form.safetyCopy()}
	pq.stampStats(res, cacheHit, false)
	res.Stats.MaterializedHit = true
	res.Stats.DerivedFacts = facts
	return res, rows, true, nil
}

// stopAfterN builds the StopEarly predicate for Options.FirstN: evaluation
// is cut off once the answer relation holds N tuples matching the answer
// pattern. Counting probes the relation's bound-column index, so the
// between-rounds check is a hash lookup, not a scan.
func stopAfterN(n int, predKey string, pattern ast.Atom) func(*database.Store) bool {
	if n <= 0 {
		return nil
	}
	return func(s *database.Store) bool {
		return eval.CountAnswers(s, predKey, pattern) >= n
	}
}

// stampStats fills the option-echo fields of a result's stats.
func (pq *PreparedQuery) stampStats(res *Result, cacheHit bool, withSip bool) {
	res.Stats.Strategy = pq.opts.Strategy
	res.Stats.PlanCacheHit = cacheHit
	res.Stats.DivergenceFallback = pq.form.divergenceFallback
	if withSip {
		res.Stats.Sip = pq.opts.Sip
		if res.Stats.Sip == "" {
			res.Stats.Sip = SipFull
		}
	}
}

// safetyCopy returns a fresh copy of the cached safety report, so callers
// mutating one Result cannot affect later results of the same form.
func (f *preparedForm) safetyCopy() *SafetyReport {
	if f.safety == nil {
		return nil
	}
	s := *f.safety
	return &s
}

// runDirect evaluates the unrewritten program bottom-up and selects the
// answers matching the instantiated query atom.
func (pq *PreparedQuery) runDirect(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, error) {
	atom := pq.atomWith(bound)
	evalOpts := evalOptions(opts)
	evalOpts.StopEarly = stopAfterN(opts.FirstN, atom.PredKey(), atom)
	evalOpts.StopEarlyPred = atom.PredKey()
	edb, _, release, err := pq.view.acquire()
	if err != nil {
		return nil, nil, err
	}
	defer release()
	var store *database.Store
	var stats *eval.Stats
	if pq.opts.Strategy == Naive {
		store, stats, err = pq.form.prepared.EvaluateNaiveCtx(ctx, edb, nil, evalOpts)
	} else {
		store, stats, err = pq.form.prepared.EvaluateCtx(ctx, edb, nil, evalOpts)
	}
	res := &Result{}
	pq.stampStats(res, cacheHit, false)
	fillEvalStats(&res.Stats, stats)
	var rows []Row
	if store != nil {
		for _, key := range pq.form.derivedKeys {
			res.Stats.DerivedFacts += store.FactCount(key)
		}
		rows = pq.answerRows(store, atom.PredKey(), atom, opts.FirstN)
	}
	if err != nil {
		return res, rows, wrapLimit(err)
	}
	return res, rows, nil
}

// answerRows reads the typed answer rows out of an evaluated store, capped
// at limit when positive.
func (pq *PreparedQuery) answerRows(store *database.Store, predKey string, pattern ast.Atom, limit int) []Row {
	rd := store.Table().Reader()
	return rowsFromIDs(&rd, eval.AnswerRows(store, predKey, pattern, limit))
}

// runTopDown runs the memoizing top-down reference strategy with the
// adorned program prepared for the form and the query atom re-instantiated
// for this call's constants.
func (pq *PreparedQuery) runTopDown(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, error) {
	// The adorned program is shared and immutable; only the query differs
	// per call, so evaluate a shallow copy carrying the new query atom.
	ad := *pq.form.adorned
	ad.Query = ast.Query{Atom: pq.atomWith(bound)}
	tdOpts := topdown.Options{
		// Each facade limit maps to its top-down counterpart: MaxFacts
		// bounds the memo tables (goals + answers, like the bottom-up limit
		// counts aux + derived facts), MaxIterations the fixpoint passes,
		// MaxDerivations the rule-body instantiations, and FirstN
		// short-circuits the answer enumeration for the original query.
		MaxMemo:        opts.MaxFacts,
		MaxPasses:      opts.MaxIterations,
		MaxDerivations: opts.MaxDerivations,
		FirstN:         opts.FirstN,
	}
	edb, _, release, err := pq.view.acquire()
	if err != nil {
		return nil, nil, err
	}
	defer release()
	tres, err := topdown.EvaluateCtx(ctx, &ad, edb, tdOpts)
	res := &Result{Safety: pq.form.safetyCopy()}
	pq.stampStats(res, cacheHit, true)
	var rows []Row
	if tres != nil {
		rows = rowsFromTuples(tres.Answers)
		res.Stats.DerivedFacts = tres.Stats.Answers
		res.Stats.AuxFacts = tres.Stats.Queries
		res.Stats.Derivations = tres.Stats.Derivations
		res.Stats.Iterations = tres.Stats.Passes
		res.Stats.StoppedEarly = tres.Stats.StoppedEarly
	}
	if err != nil {
		return res, rows, wrapLimit(err)
	}
	return res, rows, nil
}

// runRewritten evaluates the precompiled rewritten program with the seed
// facts re-instantiated for this call's constants, over a copy-on-write
// overlay of the engine's store.
func (pq *PreparedQuery) runRewritten(ctx context.Context, bound []ast.Term, opts Options, cacheHit bool) (*Result, []Row, error) {
	seeds, pattern, err := pq.form.rewriting.Parameterize(bound)
	if err != nil {
		return nil, nil, fmt.Errorf("datalog: %w", err)
	}
	evalOpts := evalOptions(opts)
	evalOpts.StopEarly = stopAfterN(opts.FirstN, pq.form.rewriting.AnswerPred, pattern)
	evalOpts.StopEarlyPred = pq.form.rewriting.AnswerPred
	edb, _, release, err := pq.view.acquire()
	if err != nil {
		return nil, nil, err
	}
	defer release()
	store, stats, evalErr := pq.form.prepared.EvaluateCtx(ctx, edb, seeds, evalOpts)

	res := &Result{RewrittenProgram: pq.form.rewrittenSrc, Safety: pq.form.safetyCopy()}
	pq.stampStats(res, cacheHit, true)
	res.Stats.RewrittenRules = pq.form.rewrittenRules
	for _, s := range seeds {
		res.Seeds = append(res.Seeds, s.String())
	}
	fillEvalStats(&res.Stats, stats)
	var rows []Row
	if store != nil {
		for _, key := range pq.form.derivedKeys {
			res.Stats.DerivedFacts += store.FactCount(key)
		}
		for _, key := range pq.form.auxKeys {
			res.Stats.AuxFacts += store.FactCount(key)
		}
		rows = pq.answerRows(store, pq.form.rewriting.AnswerPred, pattern, opts.FirstN)
		// Everything this call reports has been copied out of the overlay,
		// so the next run of the form may reuse its relations.
		pq.form.prepared.Release(store)
	}
	if evalErr != nil {
		return res, rows, wrapLimit(evalErr)
	}
	return res, rows, nil
}
