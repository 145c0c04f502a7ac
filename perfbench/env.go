package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/datalog"
	"repro/internal/server"
)

// warmupOps is the fixed number of requests every setup ends with.
const warmupOps = 200

// env is one booted system: a database, internal/server on a loopback
// listener in this process, and the closed-loop clients that drive it.
type env struct {
	sp      *spec
	tr      *tracer
	dir     string // durable-write data directory
	db      *datalog.Database
	hs      *http.Server
	served  chan error
	base    string
	ids     map[string]string
	gens    []clientGen
	clients []*client

	// layerMs holds the set-up calls' durations by per-layer metric name.
	layerMs map[string]float64
	replay  datalog.DurabilityStats

	// Checkpoints every ckptEvery acknowledged commits (durable-write).
	acks     atomic.Int64
	ckptCh   chan struct{}
	ckptDone chan struct{}
	ckptMu   sync.Mutex
	ckptMs   []float64
	ckptB    []float64
	ckptErr  error
	closedDB bool
}

// setup boots the workload and ends with warmupOps checked requests. For
// durable-write, dir must hold a copy of the generated data directory.
func setup(sp *spec, dir string, clients int, tr *tracer) (*env, error) {
	e := &env{sp: sp, tr: tr, dir: dir, layerMs: map[string]float64{}}
	if err := e.boot(clients); err != nil {
		e.teardown()
		return nil, err
	}
	res := e.runLoad(loadPlan{opsPerClient: warmupOps / clients})
	if res.firstErr != nil {
		e.teardown()
		return nil, fmt.Errorf("warm-up: %w", res.firstErr)
	}
	return e, nil
}

// timed runs one set-up call, keeps its duration under the per-layer
// metric name and, in a traced run, as a span.
func (e *env) timed(name string, fn func() error) error {
	t := time.Now()
	err := fn()
	e.layerMs[name] = msSince(t)
	e.tr.record(strings.TrimSuffix(name, "_ms"), "setup", t)
	return err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func (e *env) boot(clients int) error {
	sp := e.sp
	if d := sp.durable; d != nil {
		err := e.timed("datalog.open_ms", func() (err error) {
			e.db, err = datalog.Open(e.dir, datalog.OpenOptions{Fsync: d.fsync})
			return err
		})
		if err != nil {
			return err
		}
		e.replay, _ = e.db.DurabilityStats()
		var prog *datalog.Program
		if err := e.timed("datalog.compile_ms", func() (err error) {
			prog, err = datalog.Compile(d.matProgram)
			return err
		}); err != nil {
			return err
		}
		if err := e.timed("datalog.materialize_ms", func() error { return e.db.Materialize(prog) }); err != nil {
			return err
		}
		e.ckptCh = make(chan struct{}, 1)
		e.ckptDone = make(chan struct{})
		go e.checkpointLoop()
	} else {
		e.db = datalog.NewDatabase()
		txn := e.db.Begin()
		for _, f := range sp.facts {
			if err := txn.Assert(f.pred, anyArgs(f.args)...); err != nil {
				return err
			}
		}
		if err := e.timed("datalog.load_ms", txn.Commit); err != nil {
			return err
		}
	}
	srv := server.New(e.db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var h http.Handler = srv.Handler()
	if e.tr != nil {
		h = e.tr.wrap(h)
	}
	e.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()

	admin := newClient(e.base, nil, nil)
	defer admin.close()
	var pr server.ProgramResponse
	if err := admin.call("/v1/programs", server.ProgramRequest{Source: sp.program, Activate: true}, &pr); err != nil {
		return err
	}
	e.ids = map[string]string{}
	for _, h := range sp.handles {
		var resp server.PrepareResponse
		if err := admin.call("/v1/prepare", server.PrepareRequest{Query: h.query}, &resp); err != nil {
			return err
		}
		e.ids[h.name] = resp.PreparedID
	}
	for id := 0; id < clients; id++ {
		e.gens = append(e.gens, sp.newClient(id))
		e.clients = append(e.clients, newClient(e.base, e.ids, e.tr))
	}
	return nil
}

func anyArgs(args []string) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}

// call POSTs one JSON request and decodes a 200 response into out.
func (c *client) call(path string, in, out any) error {
	req, err := c.post(path, in)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, out)
}

// get fetches one JSON document.
func (c *client) get(path string, out any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// onAck counts an acknowledged commit and asks for a checkpoint every
// ckptEvery of them.
func (e *env) onAck() {
	if e.ckptCh == nil {
		return
	}
	if e.acks.Add(1)%int64(e.sp.durable.ckptEvery) == 0 {
		select {
		case e.ckptCh <- struct{}{}:
		default: // one is pending already
		}
	}
}

func (e *env) checkpointLoop() {
	defer close(e.ckptDone)
	for range e.ckptCh {
		if err := e.checkpoint(); err != nil {
			e.ckptMu.Lock()
			e.ckptErr = err
			e.ckptMu.Unlock()
		}
	}
}

// checkpoint runs Database.Checkpoint and records its duration and the
// size of the checkpoint file it leaves.
func (e *env) checkpoint() error {
	t := time.Now()
	if err := e.db.Checkpoint(); err != nil {
		return err
	}
	ms := msSince(t)
	e.tr.record("datalog.checkpoint", "checkpoint", t)
	size, err := newestCheckpointBytes(e.dir)
	if err != nil {
		return err
	}
	e.ckptMu.Lock()
	e.ckptMs = append(e.ckptMs, ms)
	e.ckptB = append(e.ckptB, float64(size))
	e.ckptMu.Unlock()
	return nil
}

func newestCheckpointBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	newest := ""
	for _, de := range ents {
		if n := de.Name(); strings.HasPrefix(n, "checkpoint-") && strings.HasSuffix(n, ".ckpt") && n > newest {
			newest = n
		}
	}
	if newest == "" {
		return 0, errors.New("no checkpoint file in the data directory")
	}
	fi, err := os.Stat(filepath.Join(dir, newest))
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// stopCheckpoints stops the checkpoint goroutine once no client runs.
func (e *env) stopCheckpoints() error {
	if e.ckptCh == nil {
		return nil
	}
	close(e.ckptCh)
	<-e.ckptDone
	e.ckptCh = nil
	return e.ckptErr
}

// teardown stops the server and the checkpoints and closes the database.
// It is safe on a partly booted env.
func (e *env) teardown() error {
	var errs []error
	for _, c := range e.clients {
		c.close()
	}
	if e.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, e.hs.Shutdown(ctx))
		cancel()
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.hs = nil
	}
	errs = append(errs, e.stopCheckpoints())
	if e.sp.durable != nil && e.db != nil && !e.closedDB {
		errs = append(errs, e.db.Close())
		e.closedDB = true
	}
	return errors.Join(errs...)
}

// loadPlan bounds one closed-loop phase by op count or by time. A timed
// phase runs on past its duration, up to maxDuration, until every op kind
// of the mix has minSamples successful requests.
type loadPlan struct {
	opsPerClient int
	duration     time.Duration
	maxDuration  time.Duration
	minSamples   int
	facade       *facade // run through the facade instead of HTTP
	// keepStats keeps each response's Stats and size for the per-layer
	// report; timed phases keep only latencies, so the live heap they
	// measure holds no per-request records.
	keepStats bool
}

// phaseResult is what one phase measured, merged over clients.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	completed int // successful requests
	failed    int
	wrong     int
	firstErr  error
	lat       [numOps][]float64 // ms, successful requests only
	at        [numOps][]float64 // completion offsets (s from the phase start), parallel to lat
	respBytes [numOps][]float64
	stats     [numOps][]datalog.Stats
	answers   [numOps][]int
}

// runLoad drives every client in a closed loop: each sends its next
// request only after the previous one was answered and checked.
func (e *env) runLoad(plan loadPlan) *phaseResult {
	var succ [numOps]atomic.Int64
	start := time.Now()
	deadline, hard := start.Add(plan.duration), start.Add(plan.maxDuration)
	done := func(sent int) bool {
		if plan.opsPerClient > 0 {
			return sent >= plan.opsPerClient
		}
		now := time.Now()
		if now.Before(deadline) {
			return false
		}
		if now.After(hard) {
			return true
		}
		for k, w := range e.sp.mix {
			if w > 0 && succ[k].Load() < int64(plan.minSamples) {
				return false
			}
		}
		return true
	}
	results := make([]phaseResult, len(e.clients))
	var wg sync.WaitGroup
	for i := range e.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, g, res := e.clients[i], e.gens[i], &results[i]
			for sent := 0; !done(sent); sent++ {
				o := g.next()
				var out outcome
				if plan.facade != nil {
					out = plan.facade.do(c, o)
				} else {
					out = c.do(o)
				}
				res.attempted++
				if out.err != nil {
					res.failed++
					if out.wrong {
						res.wrong++
					}
					if res.firstErr == nil {
						res.firstErr = out.err
					}
					continue
				}
				if o.kind == opTxn {
					g.acked(o)
					e.onAck()
				}
				succ[o.kind].Add(1)
				res.completed++
				res.lat[o.kind] = append(res.lat[o.kind], float64(out.latency)/1e6)
				res.at[o.kind] = append(res.at[o.kind], time.Since(start).Seconds())
				if !plan.keepStats {
					continue
				}
				res.respBytes[o.kind] = append(res.respBytes[o.kind], float64(out.respBytes))
				if out.stats != nil {
					res.stats[o.kind] = append(res.stats[o.kind], *out.stats)
					res.answers[o.kind] = append(res.answers[o.kind], len(o.want))
				}
			}
		}(i)
	}
	wg.Wait()
	total := &phaseResult{}
	for i := range results {
		total.add(&results[i])
	}
	total.elapsed = time.Since(start)
	return total
}

// add merges r into p; elapsed times add up.
func (p *phaseResult) add(r *phaseResult) {
	p.elapsed += r.elapsed
	p.attempted += r.attempted
	p.completed += r.completed
	p.failed += r.failed
	p.wrong += r.wrong
	if p.firstErr == nil {
		p.firstErr = r.firstErr
	}
	for k := range r.lat {
		p.lat[k] = append(p.lat[k], r.lat[k]...)
		p.at[k] = append(p.at[k], r.at[k]...)
		p.respBytes[k] = append(p.respBytes[k], r.respBytes[k]...)
		p.stats[k] = append(p.stats[k], r.stats[k]...)
		p.answers[k] = append(p.answers[k], r.answers[k]...)
	}
}

// finishDurable ends a durable-write run the way an operator shuts down:
// a final checkpoint, the server stopped, Close (seal). It returns the data
// directory's size in bytes and the version the database was sealed at.
func (e *env) finishDurable() (bytes int64, sealed uint64, err error) {
	if err := e.stopCheckpoints(); err != nil {
		return 0, 0, err
	}
	if err := e.checkpoint(); err != nil {
		return 0, 0, err
	}
	if err := e.teardown(); err != nil {
		return 0, 0, err
	}
	sealed = e.db.Version()
	err = filepath.WalkDir(e.dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return err
		}
		fi, err := de.Info()
		if err == nil {
			bytes += fi.Size()
		}
		return err
	})
	return bytes, sealed, err
}

// lastAck is the highest commit version any client was acknowledged.
func (e *env) lastAck() uint64 {
	var v uint64
	for _, c := range e.clients {
		v = max(v, c.lastVersion)
	}
	return v
}
