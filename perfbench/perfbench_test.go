package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestPercentileSampleRule(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	v, ok := percentile(seq(1000), 0.99)
	if v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v (ok %v), want 990 with 10 samples beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 0.99); ok {
		t.Error("p99 of 999 samples has only 9 samples beyond it, want it withheld")
	}
	if v, _ := percentile(seq(10), 0.5); v != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if d := summarize(seq(2000)); d.n != 2000 || d.p50 != 1000 || d.p99 != 1980 || !d.p99ok {
		t.Errorf("summarize(1..2000) = %+v", d)
	}
}

// opTrace renders a client's first n ops, acknowledging every transaction.
func opTrace(g clientGen, n int) []string {
	var out []string
	for i := 0; i < n; i++ {
		o := g.next()
		out = append(out, fmt.Sprintf("%+v", o))
		if o.kind == opTxn {
			g.acked(o)
		}
	}
	return out
}

func TestSegmentRates(t *testing.T) {
	ends := []float64{2.5, 0.5, 1, 2, 1.5, 4.5}
	got := segmentRates(ends, 3)
	if want := []float64{2, 2, 0.8}; !slices.Equal(got, want) {
		t.Errorf("segmentRates = %v, want %v", got, want)
	}
	if m := median(got); m != 2 {
		t.Errorf("median rate = %v, want 2", m)
	}
	if got := segmentRates(ends[:2], 4); len(got) != 2 {
		t.Errorf("2 completions in 4 segments gave %d rates, want 2", len(got))
	}
}

func TestSegmented(t *testing.T) {
	// 3000 samples completing in order; the middle third is ten times
	// slower, as under a stall of the host.
	at, lat := make([]float64, 3000), make([]float64, 3000)
	for i := range lat {
		at[i] = float64(i) / 1000
		lat[i] = float64(i%1000 + 1)
		if i >= 1000 && i < 2000 {
			lat[i] *= 10
		}
	}
	// Shuffle the pairs: segments follow completion order, not sample order.
	for i := range lat {
		j := (i * 7919) % len(lat)
		at[i], at[j] = at[j], at[i]
		lat[i], lat[j] = lat[j], lat[i]
	}
	d := segmented(at, lat)
	if d.segments != 3 || d.p50 != 500 || d.p99 != 990 || !d.p99ok || d.n != 3000 {
		t.Errorf("segmented = %+v, want 3 segments, p50 500, p99 990", d)
	}
	if d := segmented(at[:1999], lat[:1999]); d.segments != 0 || !d.p99ok {
		t.Errorf("1999 samples: %+v, want the whole sample's percentiles", d)
	}
	if d := segmented(at[:999], lat[:999]); d.p99ok {
		t.Errorf("999 samples: %+v, want the p99 withheld", d)
	}
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newSpec(name, 42, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSpec(name, 42, 2)
		c, _ := newSpec(name, 43, 2)
		if a.program != b.program || !reflect.DeepEqual(a.facts, b.facts) || !reflect.DeepEqual(a.handles, b.handles) {
			t.Errorf("%s: one seed gave two different inputs", name)
		}
		if !reflect.DeepEqual(a.durable, b.durable) {
			t.Errorf("%s: one seed gave two different data directories", name)
		}
		same := true
		for id := 0; id < 2; id++ {
			ta, tb, tc := opTrace(a.newClient(id), 300), opTrace(b.newClient(id), 300), opTrace(c.newClient(id), 300)
			if !slices.Equal(ta, tb) {
				t.Errorf("%s client %d: one seed gave two op streams", name, id)
			}
			same = same && slices.Equal(ta, tc)
		}
		if same {
			t.Errorf("%s: seeds 42 and 43 gave the same op streams", name)
		}
	}
}

func TestOracleHandComputed(t *testing.T) {
	g := newDigraph([]edge{{"a", "b"}, {"b", "c"}, {"a", "d"}, {"d", "c"}})
	if got := g.reach("a"); !slices.Equal(got, []string{"b", "c", "d"}) {
		t.Errorf("reach(a) = %v", got)
	}
	if got := g.reach("c"); len(got) != 0 {
		t.Errorf("reach(c) = %v, want none", got)
	}

	// One family of depth 1: root r with children x and y.
	//   sg(r) = flat(r) = {r}
	//   sg(x) = flat(x) ∪ down(sg(flat(sg(up(x))))) = {y} ∪ down(r) = {x, y}
	fam := sgFamilies{
		up:    []edge{{"x", "r"}, {"y", "r"}},
		down:  []edge{{"r", "x"}, {"r", "y"}},
		flat:  []edge{{"r", "r"}, {"x", "y"}, {"y", "y"}},
		nodes: []string{"r", "x", "y"},
	}
	sg := sameGeneration(fam)
	want := map[string][]string{"r": {"r"}, "x": {"x", "y"}, "y": {"x", "y"}}
	for x, w := range want {
		if !slices.Equal(sg[x], w) {
			t.Errorf("sg(%s, Y) = %v, want %v", x, sg[x], w)
		}
	}
	rel := newRelation(fam.nodes, func(x string) []string { return sg[x] })
	for _, c := range []struct {
		pattern, a, b string
		want          []string
	}{
		{"bf", "x", "", []string{"x", "y"}},
		{"fb", "", "y", []string{"x", "y"}},
		{"fb", "", "r", []string{"r"}},
		{"bb", "x", "y", []string{""}},
		{"bb", "r", "x", nil},
		{"ff", "", "", []string{"r r", "x x", "x y", "y x", "y y"}},
	} {
		if got := rel.answers(c.pattern, c.a, c.b); !slices.Equal(got, c.want) {
			t.Errorf("sg %s (%q, %q) = %q, want %q", c.pattern, c.a, c.b, got, c.want)
		}
	}
	if q := query("sg3", "fb", "a", "b"); q != "sg3(X, b)" {
		t.Errorf("query = %s", q)
	}

	// A region transaction retracts the oldest edges, keeps the size and
	// only adds edges that point forward within one component.
	reg := newRegion("r0", 2, 4, []edge{{"r0c0n0", "r0c0n1"}, {"r0c1n0", "r0c1n2"}, {"r0c0n1", "r0c0n3"}})
	ret, as := reg.nextTxn(newRand(1, "t"), 2)
	if !slices.Equal(ret, []edge{{"r0c0n0", "r0c0n1"}, {"r0c1n0", "r0c1n2"}}) {
		t.Errorf("retracts = %v, want the two oldest edges", ret)
	}
	reg.apply(ret, as)
	if len(reg.order) != 3 || reg.order[0] != (edge{"r0c0n1", "r0c0n3"}) {
		t.Errorf("region after txn = %v", reg.order)
	}
	for _, e := range as {
		var c1, c2, i, j int
		fmt.Sscanf(e[0], "r0c%dn%d", &c1, &i)
		fmt.Sscanf(e[1], "r0c%dn%d", &c2, &j)
		if c1 != c2 || i >= j {
			t.Errorf("asserted edge %v is not forward within one component", e)
		}
	}
	if got := reg.descendants("r0c0n1"); !slices.Contains(got, "r0c0n3") {
		t.Errorf("descendants of r0c0n1 = %v, want r0c0n3 among them", got)
	}
}

func TestStreamCheck(t *testing.T) {
	o := op{kind: opStream, want: []string{"a", "b", "c"}}
	if err := streamAnswers(o, []string{"c", "a", "b"}); err != nil {
		t.Error(err)
	}
	if err := streamAnswers(o, []string{"a", "b"}); err == nil {
		t.Error("a short stream passed")
	}
	if err := streamAnswers(o, []string{"a", "a", "b"}); err == nil {
		t.Error("a duplicate row passed")
	}
	if err := streamAnswers(o, []string{"a", "b", "z"}); err == nil {
		t.Error("a wrong row passed")
	}
}

// TestSmoke boots each workload, runs it for a fraction of a second and
// requires every response to be correct; durable-write is then sealed and
// its recovery checked.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			sp, err := newSpec(name, 7, 2)
			if err != nil {
				t.Fatal(err)
			}
			cfg := config{work: t.TempDir()}
			pristine, err := prepareInputs(cfg, sp)
			if err != nil {
				t.Fatal(err)
			}
			dir, err := dataDir(cfg, sp, pristine, 0)
			if err != nil {
				t.Fatal(err)
			}
			e, err := setup(sp, dir, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer e.teardown()
			res := e.runLoad(loadPlan{duration: 300 * time.Millisecond, maxDuration: 300 * time.Millisecond})
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("%d of %d failed: %v", res.failed, res.attempted, res.firstErr)
			}
			if sp.durable != nil {
				if _, _, err := sealAndVerify(e); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
