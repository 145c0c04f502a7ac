package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request share
// req, the id of the request's root span (the client span over HTTP, the
// facade op span in the facade pass).
type span struct {
	ID     uint64  `json:"id"`
	Parent uint64  `json:"parent,omitempty"`
	Req    uint64  `json:"req"`
	Layer  string  `json:"layer"`
	Op     string  `json:"op"`
	Start  float64 `json:"start_ms"`
	Dur    float64 `json:"dur_ms"`
	t0     time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer, or one
// that is switched off, records nothing.
type tracer struct {
	on    atomic.Bool
	base  time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []*span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// start opens a span; req 0 makes the span the root of its own request.
func (t *tracer) start(layer, op string, parent, req uint64) *span {
	now := time.Now()
	s := &span{ID: t.ids.Add(1), Parent: parent, Req: req, Layer: layer, Op: op, t0: now,
		Start: float64(now.Sub(t.base)) / 1e6}
	if req == 0 {
		s.Req = s.ID
	}
	return s
}

// end closes a span and keeps it. It ignores nil, so callers can end a span
// they only opened while tracing was on.
func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.Dur = msSince(s.t0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// record keeps a finished call that started at t0 as a span of its own,
// whether or not tracing is switched on; a nil tracer ignores it.
func (t *tracer) record(layer, op string, t0 time.Time) {
	if t == nil {
		return
	}
	id := t.ids.Add(1)
	t.end(&span{ID: id, Req: id, Layer: layer, Op: op, t0: t0, Start: float64(t0.Sub(t.base)) / 1e6})
}

// child times fn as a span under parent when tracing is on.
func (t *tracer) child(parent *span, layer, op string, fn func()) {
	if !t.enabled() || parent == nil {
		fn()
		return
	}
	s := t.start(layer, op, parent.ID, parent.Req)
	fn()
	t.end(s)
}

// wrap puts a handler span around every request that carries a client
// span id, parented to that client span.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.enabled() {
			h.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		s := t.start("server", r.Header.Get(opHeader), parent, parent)
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// byLayer returns the durations (ms) of the spans of one layer and op.
func (t *tracer) byLayer(layer, op string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && (op == "" || s.Op == op) {
			out = append(out, s.Dur)
		}
	}
	return out
}

// perRequest sums, per request, the durations of the spans of the given
// layers for one op, and returns the sums keyed by request id.
func (t *tracer) perRequest(op string, layers ...string) map[uint64]float64 {
	want := map[string]bool{}
	for _, l := range layers {
		want[l] = true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[uint64]float64{}
	for _, s := range t.spans {
		if s.Op == op && want[s.Layer] {
			out[s.Req] += s.Dur
		}
	}
	return out
}

// writeFile writes every span as one JSON line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
