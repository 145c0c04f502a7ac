package main

import (
	"context"
	"fmt"
	"time"

	"repro/datalog"
)

// facade replays an op stream without HTTP: it makes the calls the /v1
// handlers make, in the same order (Snapshot → With → Prepare →
// RunCtx/Stream; Begin → Txn.Commit), with a span around each.
type facade struct {
	db      *datalog.Database
	prog    *datalog.Program
	tr      *tracer
	handles map[string]string // prepared statement name -> query text
	// prepares records, per ad-hoc request, the Prepare duration and
	// whether the form was built by it (see classify).
	prepares chan prepareSample
}

type prepareSample struct {
	ms    float64
	miss  bool
	known bool // top-down forms compile no plans, so a hit cannot be told from a miss
}

func newFacade(e *env, prog *datalog.Program, ops int) *facade {
	f := &facade{db: e.db, prog: prog, tr: e.tr, handles: map[string]string{},
		prepares: make(chan prepareSample, ops)} // one sample per ad-hoc op at most
	for _, h := range e.sp.handles {
		f.handles[h.name] = h.query
	}
	return f
}

func (f *facade) do(c *client, o op) outcome {
	var root *span
	if f.tr.enabled() {
		root = f.tr.start("facade", opNames[o.kind], 0, 0)
	}
	start := time.Now()
	out := outcome{}
	var err error
	if o.kind == opTxn {
		err = f.txn(root, c, o)
	} else {
		out.stats, err = f.read(root, c, o)
	}
	out.latency = time.Since(start)
	f.tr.end(root)
	if err != nil {
		out.err, out.wrong = err, true
	}
	return out
}

func (f *facade) read(root *span, c *client, o op) (*datalog.Stats, error) {
	op := opNames[o.kind]
	var snap, bound *datalog.Snapshot
	f.tr.child(root, "datalog.snapshot", op, func() { snap = f.db.Snapshot() })
	f.tr.child(root, "datalog.with", op, func() { bound = snap.With(f.prog) })
	text, opts, args := f.handles[o.handle], datalog.Options{}, []any{o.arg}
	if o.kind == opAdhoc {
		text, opts.Strategy, args = o.text, datalog.Strategy(o.strategy), nil
	}
	if o.kind == opStream {
		opts.FirstN = streamFirstN
	}
	var pq *datalog.PreparedQuery
	var err error
	t := time.Now()
	f.tr.child(root, "datalog.prepare", op, func() { pq, err = bound.Prepare(text, opts) })
	prepMs := msSince(t)
	if err != nil {
		return nil, err
	}
	if err := c.seeVersion(snap.Version()); err != nil {
		return nil, err
	}
	if o.kind == opStream {
		var rows [][]any
		f.tr.child(root, "datalog.stream", op, func() {
			for row, rerr := range pq.Stream(context.Background(), args...) {
				if rerr != nil {
					err = rerr
					return
				}
				rows = append(rows, symbols(row))
			}
		})
		if err != nil {
			return nil, err
		}
		got, err := rowKeys(rows)
		if err != nil {
			return nil, err
		}
		return nil, streamAnswers(o, got)
	}
	var res *datalog.Result
	f.tr.child(root, "datalog.run", op, func() { res, err = pq.RunCtx(context.Background(), args...) })
	if err != nil {
		return nil, err
	}
	if o.kind == opAdhoc && root != nil {
		f.prepares <- classify(prepMs, o.strategy, res.Stats)
	}
	rows := make([][]any, len(res.Answers))
	for i, a := range res.Answers {
		rows[i] = symbols(a.Vals)
	}
	got, err := rowKeys(rows)
	if err != nil {
		return &res.Stats, err
	}
	return &res.Stats, sameAnswers(o, got)
}

// classify tells whether an ad-hoc Prepare built its form or found it in
// the program's form cache. A prepared run always reports PlanCacheHit, so
// the split uses what a fresh form does on its first run: a bottom-up form
// compiles its join pipelines then (Stats.CompiledPlans > 0) and never
// again while it stays cached.
func classify(ms float64, strategy string, st datalog.Stats) prepareSample {
	if strategy == string(datalog.TopDown) {
		return prepareSample{ms: ms}
	}
	return prepareSample{ms: ms, miss: st.CompiledPlans > 0, known: true}
}

func symbols(row datalog.Row) []any {
	out := make([]any, len(row))
	for i, v := range row {
		if s, ok := v.Symbol(); ok {
			out[i] = s
		} else {
			out[i] = v.String()
		}
	}
	return out
}

func (f *facade) txn(root *span, c *client, o op) error {
	var txn *datalog.Txn
	var err error
	f.tr.child(root, "datalog.begin", "txn", func() {
		txn = f.db.Begin()
		for _, e := range o.retracts {
			if err = txn.Retract("par", e[0], e[1]); err != nil {
				return
			}
		}
		for _, e := range o.asserts {
			if err = txn.Assert("par", e[0], e[1]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	f.tr.child(root, "datalog.commit", "txn", func() { err = txn.Commit() })
	if err != nil {
		return err
	}
	v := f.db.Version()
	if v <= c.lastVersion {
		return fmt.Errorf("txn: commit version %d is not above %d", v, c.lastVersion)
	}
	c.lastVersion = v
	return nil
}
