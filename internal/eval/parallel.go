// Parallel semi-naive evaluation: the SCC plan of a prepared program is run
// by a bounded worker pool at two levels of concurrency. Both levels run the
// one component loop of the sequential evaluator (evalContext.runComponent);
// they only change who runs it and how a large round is split.
//
// Level 1 (inter-component): a ready-set scheduler over the plan's
// dependency edges (depgraph.Plan.Deps/Dependents) runs every component
// whose dependency components have completed. Stratification is what makes
// this sound with no insert locking at all: components own disjoint derived
// relations (every relation is pre-created by newContext, so the overlay's
// relation map is never written during evaluation), a component's rules read
// only its own relations, relations of completed components, and the frozen
// base — so no relation is ever read and written by different goroutines at
// the same time. Each worker has its own round watermarks. The calling
// goroutine is one of the level-1 workers; when the plan is a chain (every
// component depends on its predecessor) only one component is ever ready,
// and it is the only one.
//
// Level 2 (intra-round): a delta round of a recursive component with at
// least partitionThreshold delta rows is split across K shards. A round's
// delta is a row range of the main relations, so nothing is copied: shard w
// fires the round's rule variants with each delta occurrence reading only
// every K-th delta row (the positions congruent to w), and every other
// occurrence reading the main relations, frozen for the round, with the
// same watermarks. Shards buffer the derived rows the frozen main relation
// does not hold (Relation.ContainsRow — duplicate suppression, which
// dominates the late rounds of a transitive closure, thus runs inside the
// parallel phase), and the round barrier inserts the buffers into the main
// relations in shard order — the serial section is exactly those inserts.
// Rows a round derives are invisible until the next round whether or not
// the round is partitioned, and every body instantiation fires once, in the
// shard owning its delta row: a partitioned round does precisely the work
// of the unpartitioned one and reports the same statistics (bar
// WorkerRounds).
package eval

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/database"
	"repro/internal/depgraph"
)

// partitionThreshold is the minimum number of delta rows in a recursive
// round before the round is hash-partitioned across shards. Below it the
// round runs on the component's worker: starting the shards and merging
// their output would cost more than the round.
const partitionThreshold = 256

// errStopParallel is the internal sentinel a worker returns when it observed
// the run's cooperative stop flag (set by StopEarly, an error, or
// cancellation elsewhere). It never escapes the evaluator: the pool filters
// it to nil, and the run's first real error (or nil) is what callers see.
var errStopParallel = errors.New("eval: parallel evaluation stopped")

// parRun is the shared state of one parallel evaluation.
type parRun struct {
	root *evalContext
	plan *depgraph.Plan
	p    int // configured parallelism (shard count for partitioned rounds)

	// Global limit counters: workers flush their local Derivations/NewFacts
	// deltas here every ctxCheckInterval firings and at round barriers, so
	// MaxDerivations/MaxFacts are enforced across workers with a bounded
	// overshoot.
	derivations atomic.Int64
	facts       atomic.Int64
	// stop asks every worker to unwind at its next check point (round
	// boundary, derivation tick, or component pickup).
	stop atomic.Bool

	mu        sync.Mutex
	ready     chan int // buffered to len(Components); senders never block
	closed    bool
	indeg     []int
	remaining int
	err       error // first real error, surfaced by evaluateParallel
	// owner is the component defining Options.StopEarlyPred (-1 if none —
	// then the probed predicate is frozen and anyone may consult StopEarly).
	// ownerDone flips when the owner completes; from then on the predicate
	// is frozen and any worker may consult the callback.
	owner     int
	ownerDone bool
}

// tick flushes the context's local counters to the global limit atomics,
// enforces the global limits, and observes the stop flag. Called from
// derivationTick (every ctxCheckInterval firings) and at round barriers.
func (pr *parRun) tick(ctx *evalContext) error {
	if d := ctx.stats.Derivations - ctx.flushedDerivations; d > 0 {
		pr.derivations.Add(d)
		ctx.flushedDerivations = ctx.stats.Derivations
	}
	if f := ctx.stats.NewFacts - ctx.flushedFacts; f > 0 {
		pr.facts.Add(int64(f))
		ctx.flushedFacts = ctx.stats.NewFacts
	}
	if max := ctx.opts.MaxDerivations; max > 0 && pr.derivations.Load() > max {
		return fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, max)
	}
	if max := ctx.opts.MaxFacts; max > 0 && pr.facts.Load() > int64(max) {
		return fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, max)
	}
	if pr.stop.Load() {
		return errStopParallel
	}
	return nil
}

// stopSafe reports whether the given component may consult StopEarly: the
// probed predicate's relation must not be concurrently written, which holds
// for the owning component at its own round boundaries, for everyone once
// the owner has completed, and always when no component owns the predicate
// (a frozen base relation).
func (pr *parRun) stopSafe(ci int) bool {
	if pr.owner < 0 || ci == pr.owner {
		return true
	}
	pr.mu.Lock()
	done := pr.ownerDone
	pr.mu.Unlock()
	return done
}

// complete retires a component: on success its dependents' indegrees drop
// and newly ready components are enqueued; on error (or when the stop flag
// is up) the queue closes instead, and workers drain whatever is already
// buffered through their fast stop checks.
func (pr *parRun) complete(ci int, err error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.remaining--
	if err != nil {
		if pr.err == nil {
			pr.err = err
		}
		pr.stop.Store(true)
	}
	if ci == pr.owner {
		pr.ownerDone = true
	}
	if pr.stop.Load() {
		pr.closeReady()
		return
	}
	for _, di := range pr.plan.Dependents[ci] {
		pr.indeg[di]--
		if pr.indeg[di] == 0 && !pr.closed {
			pr.ready <- di
		}
	}
	if pr.remaining == 0 {
		pr.closeReady()
	}
}

// closeReady closes the ready channel exactly once. Caller holds pr.mu.
func (pr *parRun) closeReady() {
	if !pr.closed {
		pr.closed = true
		close(pr.ready)
	}
}

// collect folds a retiring worker's statistics, and those of its shard
// contexts, into the root context. Serialized by pr.mu, so the
// unsynchronized per-worker Stats are only ever touched by one goroutine at
// a time.
func (pr *parRun) collect(wk *evalContext) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	pr.root.stats.merge(wk.stats)
	for _, sc := range wk.shards {
		pr.root.stats.merge(sc.stats)
	}
}

func (pr *parRun) newWorker() *evalContext {
	// fork copies the root context struct, so it must not overlap with a
	// retiring worker's collect mutating the root's stats.
	pr.mu.Lock()
	defer pr.mu.Unlock()
	return pr.root.fork(pr)
}

// partitionedRound runs one delta round split across K shards. Shard w
// fires the round's rule variants with its delta occurrences reading only
// the delta rows inShard assigns to w, and every other occurrence reading
// the main relations, frozen for the round, with the round's watermarks; it
// buffers the derived rows the main relation does not hold. The barrier
// then inserts the buffers into the main relations in shard order. Each
// body instantiation fires exactly once, in the shard owning its delta row,
// so the round does exactly the work of the unpartitioned one; the serial
// section is only the inserts of rows new to the main relations.
func (ctx *evalContext) partitionedRound(variants []variantKey) error {
	k := ctx.par.p
	if len(ctx.shards) != k {
		ctx.shards = make([]*evalContext, k)
		for w := range ctx.shards {
			sc := ctx.fork(ctx.par)
			sc.lo, sc.hi = ctx.lo, ctx.hi
			sc.shardW, sc.shardK = w, k
			sc.out = make([]rowBuf, len(ctx.rels))
			ctx.shards[w] = sc
		}
	}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for w, sc := range ctx.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.stats.WorkerRounds++
			for _, v := range variants {
				if errs[w] = sc.fireRule(v.rule, v.delta); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	var err error
	for _, e := range errs {
		if e != nil && (err == nil || errors.Is(err, errStopParallel)) {
			err = e
		}
	}
	if err != nil {
		return err
	}
	for _, sc := range ctx.shards {
		for slot := range sc.out {
			buf := &sc.out[slot]
			for i := 0; i < buf.n; i++ {
				rel := ctx.rels[slot]
				added, err := rel.InsertRow(buf.ids[i*rel.Arity : (i+1)*rel.Arity])
				if err != nil {
					return fmt.Errorf("eval: %w", err)
				}
				if added {
					ctx.stats.NewFacts++
				}
			}
			buf.ids, buf.n = buf.ids[:0], 0
		}
	}
	return ctx.checkFactLimit()
}

// isChain reports whether every component of the plan depends on the one
// before it in evaluation order. Exactly then the scheduler can never have
// two components ready at once: a component whose Deps skip its
// predecessor becomes ready together with that predecessor.
func isChain(plan *depgraph.Plan) bool {
	for ci := 1; ci < len(plan.Components); ci++ {
		deps := plan.Deps[ci]
		if len(deps) == 0 || deps[len(deps)-1] != ci-1 {
			return false
		}
	}
	return true
}

// evaluateParallel is the parallel counterpart of the sequential loop in
// EvaluateCtx: the same per-component semantics, scheduled over a bounded
// worker pool. It is only entered with parallelism > 1 and a StopEarly
// configuration the owner rule can keep exact (see Options.StopEarlyPred).
func (pp *Prepared) evaluateParallel(c context.Context, edb *database.Store, seeds []ast.Atom, opts Options, p int) (*database.Store, *Stats, error) {
	root, err := newContext(c, pp, edb, seeds, opts, "semi-naive")
	if err != nil {
		return nil, nil, err
	}
	plan := pp.plan
	root.stats.Strata = plan.Strata()
	n := len(plan.Components)
	if n == 0 {
		return root.finish(nil)
	}
	root.stats.ParallelComponents = n

	pr := &parRun{
		root:      root,
		plan:      plan,
		p:         p,
		ready:     make(chan int, n),
		indeg:     make([]int, n),
		remaining: n,
		owner:     -1,
	}
	if opts.StopEarly != nil {
		if ci, ok := plan.PredComponent[opts.StopEarlyPred]; ok {
			pr.owner = ci
		}
	}
	for ci := range plan.Components {
		pr.indeg[ci] = len(plan.Deps[ci])
		if pr.indeg[ci] == 0 {
			pr.ready <- ci
		}
	}

	work := func() {
		wk := pr.newWorker()
		for ci := range pr.ready {
			_, err := wk.runComponent(ci)
			if errors.Is(err, errStopParallel) {
				err = nil
			}
			pr.complete(ci, err)
		}
		pr.collect(wk)
	}
	workers := min(p, n)
	if isChain(plan) {
		// At most one component is ever ready, so one level-1 worker does
		// all the work. Its partitioned rounds still use p shards.
		workers = 1
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	for i := 1; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	// Final global limit check: per-worker counters below the limit can sum
	// above it without any tick having observed the total (the flush
	// granularity is ctxCheckInterval). The merged root stats hold the
	// exact totals, so enforce the limits once more before reporting
	// success — this keeps "errors if and only if the work exceeded the
	// limit" aligned with the sequential evaluator.
	ferr := pr.err
	if ferr == nil && !root.stats.StoppedEarly {
		if max := opts.MaxDerivations; max > 0 && root.stats.Derivations > max {
			ferr = fmt.Errorf("%w: more than %d derivations", ErrLimitExceeded, max)
		}
		if max := opts.MaxFacts; ferr == nil && max > 0 && root.stats.NewFacts > max {
			ferr = fmt.Errorf("%w: more than %d facts", ErrLimitExceeded, max)
		}
	}
	return root.finish(ferr)
}
