// Command perfbench is the repository's end-to-end benchmark. It boots
// internal/server over a datalog.Database in its own process behind a
// loopback TCP listener and drives the /v1 protocol with closed-loop
// clients (one goroutine and one keep-alive connection per CPU), checking
// every response against an answer oracle computed in plain Go. See
// README.md for the workloads and metrics.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload recursive-read --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics of one workload; with
// --trace 1 it runs the traced replay of every workload and reports the
// per-layer metrics. --workload all runs every workload in turn. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	clients  int
	work     string // scratch directory under .bench_build
	out      io.Writer
}

// setups is how many times a timed run boots its workload; setup_s is the
// median, and the last boot is measured.
const setups = 5

// buildDir holds everything a run writes, relative to the directory the
// benchmark is run from.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "recursive-read, front-read, durable-write or all")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Int("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1, --seconds at least 1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(work)

	out := bufio.NewWriter(stdout)
	defer out.Flush()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		clients: runtime.NumCPU(), work: work, out: out}
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range names {
		if !slices.Contains(workloadNames, name) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", name, strings.Join(workloadNames, ", "))
			return 2
		}
		cfg.workload = name
		var res result
		if cfg.trace {
			res, err = runTrace(cfg)
		} else {
			res, err = runTimed(cfg)
		}
		if err != nil {
			out.Flush()
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, m := range res.Metrics {
			if len(names) > 1 && !cfg.trace {
				k = name + "." + k
			}
			total.Metrics[k] = m
		}
		if cfg.trace {
			break // the traced run covers every workload
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !total.Correct || total.Failed > 0 {
		return 1
	}
	return 0
}

// runRecord is printed before the metrics of every run.
func runRecord(cfg config, sp *spec) map[string]any {
	return map[string]any{
		"workload": sp.name, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"setups": setups, "warmup_ops": warmupOps, "params": sp.params,
		"clients": cfg.clients, "loop": "closed", "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu": cpuModel(), "go": runtime.Version(), "commit": vcsRevision(),
	}
}

func printRecord(w io.Writer, rec map[string]any) {
	b, _ := json.Marshal(rec) // maps of strings, numbers and bools always marshal
	fmt.Fprintf(w, "record %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(w io.Writer, prefix string, ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%s %-34s %14.6g %-6s %s\n", prefix, k, ms[k].Value, ms[k].Unit, notes[k])
	}
}

// runTimed measures one workload's end-to-end metrics with tracing off.
func runTimed(cfg config) (result, error) {
	sp, err := newSpec(cfg.workload, cfg.seed, cfg.clients)
	if err != nil {
		return result{}, err
	}
	printRecord(cfg.out, runRecord(cfg, sp))
	pristine, err := prepareInputs(cfg, sp)
	if err != nil {
		return result{}, err
	}
	var e *env
	var setupS []float64
	for i := 0; i < setups; i++ {
		dir, err := dataDir(cfg, sp, pristine, i)
		if err != nil {
			return result{}, err
		}
		t := time.Now()
		e, err = setup(sp, dir, cfg.clients, nil)
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
		if i < setups-1 {
			if err := e.teardown(); err != nil {
				return result{}, err
			}
		}
	}
	defer e.teardown()

	dur := time.Duration(cfg.seconds) * time.Second
	res := e.runLoad(loadPlan{duration: dur, maxDuration: 3 * dur, minSamples: 100 * minBeyond})
	var lat [numOps]dist
	var ends []float64
	for k := range lat {
		lat[k] = segmented(res.at[k], res.lat[k])
		ends = append(ends, res.at[k]...)
	}
	rates := segmentRates(ends, int(res.elapsed/time.Second))
	// The heap is measured without the benchmark's own latency samples.
	res.lat, res.at, ends = [numOps][]float64{}, [numOps][]float64{}, nil
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)

	mean := float64(res.completed) / res.elapsed.Seconds()
	metrics := map[string]metric{
		"ops_s":   {median(rates), "1/s"},
		"setup_s": {median(setupS), "s"},
		"heap_mb": {float64(ms.HeapAlloc) / (1 << 20), "MiB"},
	}
	notes := map[string]string{
		"ops_s":   fmt.Sprintf("(median of %d segments of equal request count; %.6g over the whole phase)", len(rates), mean),
		"setup_s": fmt.Sprintf("(median of %d set-ups)", len(setupS)),
	}
	extra := map[string]metric{
		"fail_frac": {ratio(float64(res.failed), float64(res.attempted)), "1"},
	}
	extraNotes := map[string]string{"fail_frac": fmt.Sprintf("(%d of %d)", res.failed, res.attempted)}
	q := lat[opQuery]
	if !q.p99ok {
		return result{}, fmt.Errorf("%d query samples in %.1fs: too few for a p99", q.n, res.elapsed.Seconds())
	}
	metrics["query_p50_ms"] = metric{q.p50, "ms"}
	metrics["query_p99_ms"] = metric{q.p99, "ms"}
	notes["query_p50_ms"] = q.note()
	notes["query_p99_ms"] = q.note()
	for k := opAdhoc; k < numOps; k++ {
		if sp.mix[k] == 0 {
			continue
		}
		d := lat[k]
		extra[opNames[k]+"_p50_ms"] = metric{d.p50, "ms"}
		extraNotes[opNames[k]+"_p50_ms"] = d.note()
		if d.p99ok {
			extra[opNames[k]+"_p99_ms"] = metric{d.p99, "ms"}
			extraNotes[opNames[k]+"_p99_ms"] = d.note()
		}
	}
	correct := res.wrong == 0
	if sp.durable != nil {
		e.ckptMu.Lock()
		extra["checkpoints"] = metric{float64(len(e.ckptMs)), "count"}
		e.ckptMu.Unlock()
		size, perFact, err := sealAndVerify(e)
		if err != nil {
			return result{}, err
		}
		extra["disk_b_per_fact"] = metric{perFact, "B"}
		extraNotes["disk_b_per_fact"] = fmt.Sprintf("(%d bytes, %d base facts)", size, len(sp.durable.initial))
	}
	fmt.Fprintf(cfg.out, "phase timed %.3fs, %d attempted, %d failed, %d wrong\n",
		res.elapsed.Seconds(), res.attempted, res.failed, res.wrong)
	if res.firstErr != nil {
		fmt.Fprintf(cfg.out, "first failure: %v\n", res.firstErr)
	}
	printMetrics(cfg.out, "metric "+sp.name, metrics, notes)
	printMetrics(cfg.out, "report "+sp.name, extra, extraNotes)
	return result{Correct: correct, Attempted: res.attempted, Failed: res.failed, Metrics: metrics}, nil
}

// prepareInputs writes durable-write's generated data directory once per
// run; set-ups recover copies of it.
func prepareInputs(cfg config, sp *spec) (string, error) {
	if sp.durable == nil {
		return "", nil
	}
	dir := filepath.Join(cfg.work, "pristine")
	if err := genDurableDir(dir, sp.durable); err != nil {
		return "", fmt.Errorf("generating the data directory: %w", err)
	}
	return dir, nil
}

func dataDir(cfg config, sp *spec, pristine string, i int) (string, error) {
	if sp.durable == nil {
		return "", nil
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("data%d", i))
	return dir, copyDir(pristine, dir)
}

// sealAndVerify shuts durable-write down (final checkpoint, seal), sizes the
// data directory and checks recovery against the oracle.
func sealAndVerify(e *env) (int64, float64, error) {
	size, sealed, err := e.finishDurable()
	if err != nil {
		return 0, 0, err
	}
	if last := e.lastAck(); last != sealed {
		return 0, 0, fmt.Errorf("sealed at version %d, last acknowledged commit was %d", sealed, last)
	}
	var regions []*regionState
	for _, g := range e.gens {
		regions = append(regions, g.(*dwClient).reg)
	}
	if err := verifyRecovery(e.dir, sealed, e.sp.durable, regions); err != nil {
		return 0, 0, errors.Join(errors.New("recovery check"), err)
	}
	return size, float64(size) / float64(len(e.sp.durable.initial)), nil
}
