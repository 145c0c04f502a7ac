package main

import (
	"fmt"
	"path/filepath"
	"runtime"

	"repro/datalog"
	"repro/internal/server"
)

// traceOps is the op count per client of each pass of the traced run,
// sized so that every p99 it reports has at least 1000 samples.
var traceOps = map[string]int{"recursive-read": 1200, "front-read": 3000, "durable-write": 800}

// prefixes name each workload's per-layer metrics.
var prefixes = map[string]string{"recursive-read": "rr.", "front-read": "fr.", "durable-write": "dw."}

// runTrace replays every workload's op stream in three passes — untraced
// over HTTP, traced over HTTP, and through the datalog facade without HTTP
// — and reports the per-layer metrics of all of them, prefixed rr., fr.
// and dw., starting with the workload asked for.
func runTrace(cfg config) (result, error) {
	order := []string{cfg.workload}
	for _, n := range workloadNames {
		if n != cfg.workload {
			order = append(order, n)
		}
	}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range order {
		c := cfg
		c.workload = name
		res, err := traceWorkload(c)
		if err != nil {
			return result{}, fmt.Errorf("%s: %w", name, err)
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			total.Metrics[prefixes[name]+k] = m
		}
	}
	return total, nil
}

// overheadRounds is how many times the untraced and the traced HTTP pass
// alternate, so that a drift in machine speed reaches both alike.
const overheadRounds = 4

// goCost accumulates the Go runtime's work over measured intervals.
type goCost struct {
	alloc  uint64
	gcs    uint32
	pauses []float64
}

func (g *goCost) add(a, b *runtime.MemStats) {
	g.alloc += b.TotalAlloc - a.TotalAlloc
	g.gcs += b.NumGC - a.NumGC
	for i := a.NumGC + 1; i <= b.NumGC && b.NumGC-i < 256; i++ {
		g.pauses = append(g.pauses, float64(b.PauseNs[(i+255)%256])/1e6)
	}
}

func (g *goCost) metrics(ops int) map[string]metric {
	return map[string]metric{
		"go.alloc_kb_per_op": {float64(g.alloc) / 1024 / float64(ops), "KiB"},
		"go.gc_per_kop":      {float64(g.gcs) * 1000 / float64(ops), "count"},
		"go.gc_pause_ms":     {median(g.pauses), "ms"},
	}
}

func traceWorkload(cfg config) (result, error) {
	sp, err := newSpec(cfg.workload, cfg.seed, cfg.clients)
	if err != nil {
		return result{}, err
	}
	rec := runRecord(cfg, sp)
	rec["trace_ops_per_client"] = traceOps[sp.name]
	printRecord(cfg.out, rec)
	pristine, err := prepareInputs(cfg, sp)
	if err != nil {
		return result{}, err
	}
	dir, err := dataDir(cfg, sp, pristine, 0)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	e, err := setup(sp, dir, cfg.clients, tr)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	defer e.teardown()
	n := traceOps[sp.name]
	dur0, _ := e.db.DurabilityStats()
	mat0, _ := e.db.MaterializedStats()

	// The facade pass runs the benchmark's own compile of the served
	// program (durable-write's compile_ms is the materialized program's,
	// timed at set-up), prepared as POST /v1/prepare does.
	var prog *datalog.Program
	compile := func() (err error) { prog, err = datalog.Compile(sp.program); return err }
	if sp.durable == nil {
		err = e.timed("datalog.compile_ms", compile)
	} else {
		err = compile()
	}
	if err != nil {
		return result{}, err
	}
	for _, h := range sp.handles {
		if _, err := e.db.Snapshot().With(prog).Prepare(h.query, datalog.Options{}); err != nil {
			return result{}, err
		}
	}
	m, notes := map[string]metric{}, map[string]string{}
	for k, v := range e.layerMs {
		m[k] = metric{v, "ms"}
	}
	if sp.durable != nil {
		m["wal.replayed_records"] = metric{float64(e.replay.ReplayedRecords), "count"}
		m["wal.replay_ms"] = metric{e.replay.ReplayMillis, "ms"}
	}
	fac := newFacade(e, prog, n*cfg.clients)

	// One unmeasured chunk over HTTP and one through the facade fill the
	// form caches of both programs. Then the three passes alternate in
	// rounds, so that a drift in machine speed reaches them alike:
	//   1. untraced HTTP — the overhead baseline and the Go runtime cost;
	//   2. traced HTTP — client and handler spans, response Stats;
	//   3. facade — the handlers' calls into the datalog facade, no HTTP.
	chunk := n / overheadRounds
	warm := e.runLoad(loadPlan{opsPerClient: chunk})
	warm.add(e.runLoad(loadPlan{opsPerClient: chunk, facade: fac}))
	plain, traced, direct := &phaseResult{}, &phaseResult{}, &phaseResult{}
	var gc goCost
	for i := 0; i < overheadRounds; i++ {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		plain.add(e.runLoad(loadPlan{opsPerClient: chunk}))
		runtime.ReadMemStats(&ms1)
		gc.add(&ms0, &ms1)
		tr.on.Store(true)
		traced.add(e.runLoad(loadPlan{opsPerClient: chunk, keepStats: true}))
		direct.add(e.runLoad(loadPlan{opsPerClient: chunk, facade: fac}))
		tr.on.Store(false)
	}
	close(fac.prepares)
	for k, v := range gc.metrics(plain.attempted) {
		m[k] = v
		notes[k] = fmt.Sprintf("(%d requests, %d GCs)", plain.attempted, gc.gcs)
	}

	for _, p := range []*phaseResult{warm, plain, traced, direct} {
		if p.firstErr != nil {
			fmt.Fprintf(cfg.out, "first failure: %v\n", p.firstErr)
		}
	}
	res := result{Correct: warm.wrong+plain.wrong+traced.wrong+direct.wrong == 0,
		Attempted: warm.attempted + plain.attempted + traced.attempted + direct.attempted,
		Failed:    warm.failed + plain.failed + traced.failed + direct.failed, Metrics: m}

	untracedOps := float64(plain.completed) / plain.elapsed.Seconds()
	tracedOps := float64(traced.completed) / traced.elapsed.Seconds()
	m["trace.ops_s_untraced"] = metric{untracedOps, "1/s"}
	m["trace.ops_s_traced"] = metric{tracedOps, "1/s"}
	m["trace.overhead"] = metric{1 - tracedOps/untracedOps, "1"}
	for _, k := range []string{"trace.ops_s_untraced", "trace.ops_s_traced", "trace.overhead"} {
		notes[k] = fmt.Sprintf("(%d and %d requests)", plain.completed, traced.completed)
	}

	// The end-to-end latencies of the ops not every workload has.
	for k := opAdhoc; k < numOps; k++ {
		if sp.mix[k] == 0 {
			continue
		}
		d := summarize(plain.lat[k])
		if !d.p99ok {
			return res, fmt.Errorf("%d %s samples: too few for a p99", d.n, opNames[k])
		}
		m[opNames[k]+"_p50_ms"] = metric{d.p50, "ms"}
		m[opNames[k]+"_p99_ms"] = metric{d.p99, "ms"}
		notes[opNames[k]+"_p50_ms"] = fmt.Sprintf("(n=%d)", d.n)
		notes[opNames[k]+"_p99_ms"] = fmt.Sprintf("(n=%d)", d.n)
	}

	bases := evalMetrics(m, notes, traced)
	if err := spanMetrics(m, notes, sp, tr, traced, fac); err != nil {
		return res, err
	}
	checks := layerChecks(sp.name, m)

	if d := sp.durable; d != nil {
		dur1, _ := e.db.DurabilityStats()
		mat1, _ := e.db.MaterializedStats()
		commits := float64(dur1.RecordsAppended - dur0.RecordsAppended)
		m["wal.bytes_per_commit"] = metric{ratio(float64(dur1.BytesAppended-dur0.BytesAppended), commits), "B"}
		m["wal.bytes_per_fact"] = metric{ratio(float64(dur1.BytesAppended-dur0.BytesAppended), commits*float64(2*d.k)), "B"}
		m["wal.fsyncs_per_commit"] = metric{ratio(float64(dur1.Fsyncs-dur0.Fsyncs), commits), "count"}
		maint := float64(mat1.Maintenances - mat0.Maintenances)
		m["eval.maintain_rounds"] = metric{ratio(float64(mat1.Rounds-mat0.Rounds), maint), "count"}
		m["eval.maintain_rederived"] = metric{ratio(float64(mat1.Rederived-mat0.Rederived), maint), "count"}
		for _, k := range []string{"wal.bytes_per_commit", "wal.bytes_per_fact", "wal.fsyncs_per_commit"} {
			notes[k] = fmt.Sprintf("(%.0f commits)", commits)
		}
		notes["eval.maintain_rounds"] = fmt.Sprintf("(%.0f maintenances)", maint)
		notes["eval.maintain_rederived"] = notes["eval.maintain_rounds"]
		e.ckptMu.Lock()
		m["datalog.checkpoint_ms"] = metric{median(e.ckptMs), "ms"}
		m["wal.checkpoint_bytes"] = metric{median(e.ckptB), "B"}
		nckpt := len(e.ckptMs)
		e.ckptMu.Unlock()
		notes["datalog.checkpoint_ms"] = fmt.Sprintf("(n=%d)", nckpt)
		notes["wal.checkpoint_bytes"] = notes["datalog.checkpoint_ms"]
		if nckpt == 0 {
			return res, fmt.Errorf("no checkpoint ran during the traced passes")
		}
		size, perFact, err := sealAndVerify(e)
		if err != nil {
			return res, err
		}
		m["disk_b_per_fact"] = metric{perFact, "B"}
		fmt.Fprintf(cfg.out, "report %s: %d checkpoints; data directory %d bytes after seal\n", sp.name, nckpt, size)
	} else {
		var st server.StatsResponse
		admin := newClient(e.base, nil, nil)
		err := admin.get("/v1/stats", &st)
		admin.close()
		if err != nil {
			return res, err
		}
		var rejected int64
		for _, t := range st.Tenants {
			rejected += t.Rejected
		}
		if sp.name == "front-read" {
			m["server.rejected"] = metric{float64(rejected), "count"}
		}
	}

	path := filepath.Join(buildDir, "trace-"+sp.name+".jsonl")
	if err := tr.writeFile(path); err != nil {
		return res, err
	}
	fmt.Fprintf(cfg.out, "report %s: passes of %d ops per client in %d alternating rounds (untraced %.2fs, traced %.2fs, facade %.2fs); %d spans in %s\n",
		sp.name, n, overheadRounds, plain.elapsed.Seconds(), traced.elapsed.Seconds(), direct.elapsed.Seconds(), len(tr.spans), path)
	fmt.Fprintf(cfg.out, "report %s: ratio bases %s\n", sp.name, bases)
	for _, c := range checks {
		fmt.Fprintln(cfg.out, "check", sp.name, c)
	}
	printMetrics(cfg.out, "layer "+prefixes[sp.name], m, notes)
	return res, nil
}

// evalMetrics reduces the Stats of the traced pass's prepared queries and
// returns the bases of the ratios it reports.
func evalMetrics(m map[string]metric, notes map[string]string, p *phaseResult) string {
	var der, iter, probes, rounds, idx, rules []float64
	var sumProbes, sumAnswers, sumFacts, sumDer, sumIdx, sumHits, sumAux float64
	for i, st := range p.stats[opQuery] {
		der = append(der, float64(st.Derivations))
		iter = append(iter, float64(st.Iterations))
		probes = append(probes, float64(st.JoinProbes))
		rounds = append(rounds, float64(st.WorkerRounds))
		idx = append(idx, float64(st.IndexProbes))
		rules = append(rules, float64(st.RewrittenRules))
		sumProbes += float64(st.JoinProbes)
		sumAnswers += float64(p.answers[opQuery][i])
		sumFacts += float64(st.TotalFacts())
		sumDer += float64(st.Derivations)
		sumIdx += float64(st.IndexProbes)
		sumHits += float64(st.IndexHits)
		sumAux += float64(st.AuxFacts)
	}
	m["eval.derivations"] = metric{median(der), "count"}
	m["eval.iterations"] = metric{median(iter), "count"}
	m["eval.join_probes"] = metric{median(probes), "count"}
	m["eval.answers"] = metric{median(intsF(p.answers[opQuery])), "count"}
	m["eval.probes_per_answer"] = metric{ratio(sumProbes, sumAnswers), "1"}
	m["eval.facts_per_derivation"] = metric{ratio(sumFacts, sumDer), "1"}
	m["eval.worker_rounds"] = metric{median(rounds), "count"}
	m["database.index_probes"] = metric{median(idx), "count"}
	m["database.hits_per_probe"] = metric{ratio(sumHits, sumIdx), "1"}
	m["rewrite.aux_share"] = metric{ratio(sumAux, sumFacts), "1"}
	m["rewrite.rules"] = metric{median(rules), "count"}
	for _, k := range []string{"eval.derivations", "eval.iterations", "eval.join_probes", "eval.answers",
		"eval.probes_per_answer", "eval.facts_per_derivation", "eval.worker_rounds", "database.index_probes",
		"database.hits_per_probe", "rewrite.aux_share", "rewrite.rules"} {
		notes[k] = fmt.Sprintf("(n=%d)", len(p.stats[opQuery]))
	}
	if adhoc := p.stats[opAdhoc]; len(adhoc) > 0 {
		plans := 0.0
		for _, st := range adhoc {
			plans += float64(st.CompiledPlans)
		}
		m["eval.compiled_plans"] = metric{plans / float64(len(adhoc)), "count"}
		notes["eval.compiled_plans"] = fmt.Sprintf("(mean of n=%d)", len(adhoc))
	}
	return fmt.Sprintf("over %d prepared queries: %.0f join probes / %.0f answers; %.0f facts / %.0f derivations; %.0f index hits / %.0f index probes; %.0f aux / %.0f derived facts",
		len(p.stats[opQuery]), sumProbes, sumAnswers, sumFacts, sumDer, sumHits, sumIdx, sumAux, sumFacts)
}

func intsF(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// facadeLayers are the facade calls each op makes, in handler order.
var facadeLayers = map[opKind][]string{
	opQuery:  {"datalog.snapshot", "datalog.with", "datalog.prepare", "datalog.run"},
	opAdhoc:  {"datalog.snapshot", "datalog.with", "datalog.prepare", "datalog.run"},
	opStream: {"datalog.snapshot", "datalog.with", "datalog.prepare", "datalog.stream"},
	opTxn:    {"datalog.begin", "datalog.commit"},
}

// spanMetrics reduces the spans: handler medians, transport (client span
// minus handler span of the same request), server self time (handler
// median minus the median of the facade calls the handler makes) and the
// facade calls themselves.
func spanMetrics(m map[string]metric, notes map[string]string, sp *spec, tr *tracer, traced *phaseResult, fac *facade) error {
	med := func(name string, xs []float64, scale float64, unit string) {
		m[name] = metric{median(xs) * scale, unit}
		notes[name] = fmt.Sprintf("(n=%d)", len(xs))
	}
	for k := opQuery; k < numOps; k++ {
		if sp.mix[k] == 0 {
			continue
		}
		name := opNames[k]
		handler := tr.byLayer("server", name)
		if len(handler) == 0 {
			return fmt.Errorf("no handler spans for %s", name)
		}
		clientSpans, serverSpans := tr.perRequest(name, "client"), tr.perRequest(name, "server")
		var transport []float64
		for req, c := range clientSpans {
			if s, ok := serverSpans[req]; ok {
				transport = append(transport, c-s)
			}
		}
		var facadeTotals []float64
		for _, v := range tr.perRequest(name, facadeLayers[k]...) {
			facadeTotals = append(facadeTotals, v)
		}
		med("server."+name+"_ms", handler, 1, "ms")
		m["server."+name+"_self_ms"] = metric{median(handler) - median(facadeTotals), "ms"}
		notes["server."+name+"_self_ms"] = fmt.Sprintf("(n=%d handler, %d facade)", len(handler), len(facadeTotals))
		med("transport."+name+"_ms", transport, 1, "ms")
		if k != opTxn {
			med("server."+name+"_resp_bytes", traced.respBytes[k], 1, "B")
		}
	}
	med("datalog.snapshot_us", tr.byLayer("datalog.snapshot", ""), 1000, "us")
	med("datalog.run_ms", tr.byLayer("datalog.run", "query"), 1, "ms")
	if sp.mix[opStream] > 0 {
		med("datalog.stream_ms", tr.byLayer("datalog.stream", "stream"), 1, "ms")
	}
	if sp.mix[opAdhoc] > 0 {
		var hit, miss []float64
		unknown := 0
		for p := range fac.prepares {
			switch {
			case !p.known:
				unknown++
			case p.miss:
				miss = append(miss, p.ms)
			default:
				hit = append(hit, p.ms)
			}
		}
		med("datalog.prepare_hit_us", hit, 1000, "us")
		med("datalog.prepare_miss_ms", miss, 1, "ms")
		m["datalog.form_hit_share"] = metric{ratio(float64(len(hit)), float64(len(hit)+len(miss))), "1"}
		notes["datalog.form_hit_share"] = fmt.Sprintf("(%d hits / %d classified; %d top-down left out)", len(hit), len(hit)+len(miss), unknown)
	}
	if sp.mix[opTxn] > 0 {
		d := summarize(tr.byLayer("datalog.commit", "txn"))
		if !d.p99ok {
			return fmt.Errorf("%d commits: too few for a p99", d.n)
		}
		m["datalog.commit_ms"] = metric{d.p50, "ms"}
		m["datalog.commit_p99_ms"] = metric{d.p99, "ms"}
		notes["datalog.commit_ms"] = fmt.Sprintf("(n=%d)", d.n)
		notes["datalog.commit_p99_ms"] = notes["datalog.commit_ms"]
	}
	return nil
}

// layerChecks compares the layer shares with what the workload is for.
func layerChecks(name string, m map[string]metric) []string {
	check := func(label string, share, bound float64, atLeast bool) string {
		ok := share >= bound
		rel := ">="
		if !atLeast {
			ok, rel = share <= bound, "<="
		}
		verdict := "FAIL"
		if ok {
			verdict = "ok"
		}
		return fmt.Sprintf("%s = %.3f (want %s %.2f) %s", label, share, rel, bound, verdict)
	}
	run := ratio(m["datalog.run_ms"].Value, m["server.query_ms"].Value)
	switch name {
	case "recursive-read":
		return []string{check("datalog.run_ms / server.query_ms", run, 0.70, true)}
	case "front-read":
		return []string{check("datalog.run_ms / server.query_ms", run, 0.30, false)}
	default:
		commit := ratio(m["datalog.commit_ms"].Value, m["server.txn_ms"].Value)
		return []string{check("datalog.commit_ms / server.txn_ms", commit, 0.50, true)}
	}
}
