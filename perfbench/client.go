package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/datalog"
	"repro/internal/server"
)

// Request-id headers linking a client span to the handler span it caused.
const (
	reqHeader = "X-Bench-Request"
	opHeader  = "X-Bench-Op"
)

// client is one closed-loop caller with its own keep-alive connection.
type client struct {
	base string
	hc   *http.Client
	ids  map[string]string // prepared statement name -> prepared_id
	tr   *tracer
	// lastVersion is the highest snapshot or commit version this client
	// has been answered with; versions must never go backwards.
	lastVersion uint64
}

func newClient(base string, ids map[string]string, tr *tracer) *client {
	return &client{
		base: base,
		ids:  ids,
		tr:   tr,
		hc: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is one finished request.
type outcome struct {
	latency   time.Duration
	err       error // transport error, non-200 or wrong answer
	wrong     bool  // the response decoded but disagreed with the oracle
	stats     *datalog.Stats
	respBytes int
}

// do sends one op, waits for the full response, decodes and checks it.
func (c *client) do(o op) outcome {
	var req *http.Request
	var err error
	switch o.kind {
	case opQuery:
		req, err = c.post("/v1/query", server.QueryRequest{QueryEntry: server.QueryEntry{
			PreparedID: c.ids[o.handle], Args: []any{o.arg}}})
	case opAdhoc:
		req, err = c.post("/v1/query", server.QueryRequest{QueryEntry: server.QueryEntry{
			Query: o.text, Options: &datalog.Options{Strategy: datalog.Strategy(o.strategy)}}})
	case opStream:
		q := url.Values{"prepared_id": {c.ids[o.handle]}, "args": {o.arg}, "first_n": {strconv.Itoa(streamFirstN)}}
		req, err = http.NewRequest(http.MethodGet, c.base+"/v1/query/stream?"+q.Encode(), nil)
	case opTxn:
		req, err = c.post("/v1/txn", server.TxnRequest{Retracts: wireFacts(o.retracts), Asserts: wireFacts(o.asserts)})
	}
	if err != nil {
		return outcome{err: err}
	}
	if c.tr.enabled() {
		sp := c.tr.start("client", opNames[o.kind], 0, 0)
		defer c.tr.end(sp)
		req.Header.Set(reqHeader, strconv.FormatUint(sp.ID, 10))
		req.Header.Set(opHeader, opNames[o.kind])
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return outcome{err: err}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: HTTP %d: %s", opNames[o.kind], resp.StatusCode, bytes.TrimSpace(body))}
	}
	out := outcome{respBytes: len(body)}
	switch o.kind {
	case opQuery, opAdhoc:
		out.stats, err = c.checkQuery(o, body)
	case opStream:
		err = c.checkStream(o, body)
	case opTxn:
		err = c.checkTxn(o, body)
	}
	out.latency = time.Since(start)
	if err != nil {
		out.err, out.wrong = err, true
	}
	return out
}

func (c *client) post(path string, v any) (*http.Request, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	return req, nil
}

func wireFacts(edges []edge) []server.Fact {
	out := make([]server.Fact, len(edges))
	for i, e := range edges {
		out[i] = server.Fact{Pred: "par", Args: []any{e[0], e[1]}}
	}
	return out
}

// seeVersion enforces that versions never decrease for this client.
func (c *client) seeVersion(v uint64) error {
	if v < c.lastVersion {
		return fmt.Errorf("version went back from %d to %d", c.lastVersion, v)
	}
	c.lastVersion = v
	return nil
}

func (c *client) checkQuery(o op, body []byte) (*datalog.Stats, error) {
	var resp server.QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding query response: %w", err)
	}
	if len(resp.Results) != 1 {
		return nil, fmt.Errorf("query: %d results, want 1", len(resp.Results))
	}
	res := resp.Results[0]
	if err := c.seeVersion(resp.Version); err != nil {
		return &res.Stats, err
	}
	got, err := rowKeys(res.Answers)
	if err != nil {
		return &res.Stats, err
	}
	return &res.Stats, sameAnswers(o, got)
}

func (c *client) checkStream(o op, body []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var rows [][]any
	done := false
	for sc.Scan() {
		var ev server.StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("decoding stream line: %w", err)
		}
		switch {
		case done:
			return fmt.Errorf("stream: line after the terminal line")
		case ev.Error != nil:
			return fmt.Errorf("stream: %s: %s", ev.Error.Code, ev.Error.Message)
		case ev.Done:
			done = true
			if ev.Rows != len(rows) {
				return fmt.Errorf("stream: terminal line counts %d rows, got %d", ev.Rows, len(rows))
			}
			if err := c.seeVersion(ev.Version); err != nil {
				return err
			}
		default:
			rows = append(rows, ev.Row)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !done {
		return fmt.Errorf("stream: no terminal line")
	}
	got, err := rowKeys(rows)
	if err != nil {
		return err
	}
	return streamAnswers(o, got)
}

func (c *client) checkTxn(o op, body []byte) error {
	var resp server.TxnResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding txn response: %w", err)
	}
	if resp.Asserts != len(o.asserts) || resp.Retracts != len(o.retracts) {
		return fmt.Errorf("txn: acknowledged %d asserts and %d retracts, sent %d and %d",
			resp.Asserts, resp.Retracts, len(o.asserts), len(o.retracts))
	}
	if resp.Version <= c.lastVersion {
		return fmt.Errorf("txn: commit version %d is not above %d", resp.Version, c.lastVersion)
	}
	c.lastVersion = resp.Version
	return nil
}

// rowKeys renders answer rows as the oracle does: the bindings of the
// query's free arguments, joined by a space.
func rowKeys(rows [][]any) ([]string, error) {
	out := make([]string, len(rows))
	for i, row := range rows {
		parts := make([]string, len(row))
		for j, v := range row {
			s, ok := v.(string)
			if !ok {
				return nil, fmt.Errorf("answer row %v: %v is not a symbol", row, v)
			}
			parts[j] = s
		}
		out[i] = strings.Join(parts, " ")
	}
	return out, nil
}

// sameAnswers checks an answer set against the oracle.
func sameAnswers(o op, got []string) error {
	sort.Strings(got)
	if !slices.Equal(got, o.want) {
		return fmt.Errorf("%s %s%s: got %d answers %v, oracle has %d %v",
			opNames[o.kind], o.handle, o.text, len(got), clip(got), len(o.want), clip(o.want))
	}
	return nil
}

// streamAnswers checks a first_n stream: min(first_n, |answers|) distinct
// rows, all of them answers.
func streamAnswers(o op, got []string) error {
	want := min(streamFirstN, len(o.want))
	seen := map[string]bool{}
	for _, g := range got {
		if seen[g] {
			return fmt.Errorf("stream %s(%s): duplicate row %s", o.handle, o.arg, g)
		}
		seen[g] = true
		if _, ok := slices.BinarySearch(o.want, g); !ok {
			return fmt.Errorf("stream %s(%s): row %s is not an answer", o.handle, o.arg, g)
		}
	}
	if len(got) != want {
		return fmt.Errorf("stream %s(%s): %d rows, want %d", o.handle, o.arg, len(got), want)
	}
	return nil
}

func clip(s []string) []string {
	if len(s) > 8 {
		return s[:8]
	}
	return s
}
