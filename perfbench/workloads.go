package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
)

// opKind is one request type of the /v1 protocol.
type opKind int

const (
	opQuery  opKind = iota // prepared POST /v1/query
	opAdhoc                // ad-hoc query text on POST /v1/query
	opStream               // GET /v1/query/stream, NDJSON
	opTxn                  // POST /v1/txn
	numOps
)

var opNames = [numOps]string{"query", "adhoc", "stream", "txn"}

// streamFirstN is the first_n of every stream request.
const streamFirstN = 16

// op is one request of a client's op stream, with the answers the oracle
// expects for it.
type op struct {
	kind     opKind
	handle   string // prepared statement name (query, stream)
	arg      string // the bound constant
	text     string // query text with the constant in place
	strategy string // ad-hoc strategy
	want     []string
	// txn
	retracts, asserts []edge
}

// handleSpec is one prepared statement: its query text (whose constant
// each run replaces) under the default magic strategy.
type handleSpec struct {
	name, query string
}

// clientGen produces one client's op stream. next is called only after the
// previous op completed, and acked only for an acknowledged transaction,
// so a generator's state is the client's view at its last ack.
type clientGen interface {
	next() op
	acked(op)
}

// spec is a workload: the inputs the engine sees and the op streams that
// drive it, all generated from the seed.
type spec struct {
	name    string
	program string // compiled by the server (POST /v1/programs)
	facts   []fact // memory-only workloads: loaded by one Txn.Commit at setup
	handles []handleSpec
	mix     [numOps]int
	// durable-write only
	durable *durableSpec
	// params describe the workload in the run record.
	params    map[string]any
	newClient func(id int) clientGen
}

// durableSpec is the durable-write data directory and write load.
type durableSpec struct {
	matProgram string         // materialized in the database (anc/sg)
	initial    []fact         // checkpointed base facts
	suffix     [][2][]edge    // log suffix: retracts, asserts per txn
	regions    []*regionState // client regions after the log suffix
	k          int
	ckptEvery  int
	fsync      string
}

var workloadNames = []string{"recursive-read", "front-read", "durable-write"}

func newSpec(name string, seed uint64, clients int) (*spec, error) {
	switch name {
	case "recursive-read":
		return recursiveRead(seed), nil
	case "front-read":
		return frontRead(seed), nil
	case "durable-write":
		return durableWrite(seed, clients), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// recursive-read sizes.
const (
	rrComps      = 240 // DAG components of par
	rrCompSize   = 32
	rrExtra      = 0.5 // chance of a second incoming edge
	rrFamilies   = 64  // same-generation family trees
	rrFamilyDeep = 4
)

func recursiveRead(seed uint64) *spec {
	r := newRand(seed, "recursive-read/data")
	var par []edge
	var parNodes []string
	for c := 0; c < rrComps; c++ {
		prefix := fmt.Sprintf("n%d_", c)
		par = append(par, dagComponent(r, prefix, rrCompSize, rrExtra)...)
		for i := 0; i < rrCompSize; i++ {
			parNodes = append(parNodes, nodeName(prefix, i))
		}
	}
	fam := genSG(r, "g", rrFamilies, rrFamilyDeep)
	anc, sg := newDigraph(par), sameGeneration(fam)
	sp := &spec{
		name:    "recursive-read",
		program: ancSGRules(""),
		facts:   append(edgeFacts("par", par), fam.facts("")...),
		handles: []handleSpec{{"anc", "anc(n0_0, Y)"}, {"sg", "sg(g0_0, Y)"}},
		mix:     [numOps]int{opQuery: 100},
		params: map[string]any{
			"par_edges": len(par), "par_components": rrComps, "par_component_nodes": rrCompSize,
			"sg_families": rrFamilies, "sg_depth": rrFamilyDeep, "sg_facts": len(fam.up) + len(fam.flat) + len(fam.down),
			"mix": "query 50% anc(c, Y), 50% sg(c, Y), prepared, magic",
		},
	}
	sp.newClient = func(id int) clientGen {
		r := newRand(seed, fmt.Sprintf("recursive-read/client%d", id))
		return genFunc(func() op {
			if r.IntN(2) == 0 {
				c := parNodes[r.IntN(len(parNodes))]
				return op{kind: opQuery, handle: "anc", arg: c, want: anc.reach(c)}
			}
			c := fam.nodes[r.IntN(len(fam.nodes))]
			return op{kind: opQuery, handle: "sg", arg: c, want: sg[c]}
		})
	}
	return sp
}

// front-read sizes.
const (
	frSlices     = 16 // renamed anc/sg copies, each over its own EDB slice
	frParNodes   = 10
	frExtra      = 0.3
	frFamilies   = 2
	frFamilyDeep = 2
	frZipfS      = 1.0
)

// frStrategies and frPatterns span the ad-hoc query forms: with 2
// predicates per slice they give frSlices*32 = 512 distinct forms.
var (
	frStrategies = []string{"magic", "supplementary-magic", "semi-naive", "top-down"}
	frPatterns   = []string{"bf", "fb", "bb", "ff"}
)

// relation is a binary relation the oracle knows completely.
type relation struct {
	fwd, inv map[string][]string // r(x, Y) and r(X, y), sorted
	all      []string            // every "x y", sorted
	nodes    []string
}

func newRelation(nodes []string, fwd func(string) []string) relation {
	r := relation{fwd: map[string][]string{}, inv: map[string][]string{}, nodes: nodes}
	inv := map[string]map[string]bool{}
	for _, x := range nodes {
		r.fwd[x] = fwd(x)
		for _, y := range r.fwd[x] {
			r.all = append(r.all, x+" "+y)
			if inv[y] == nil {
				inv[y] = map[string]bool{}
			}
			inv[y][x] = true
		}
	}
	for y, xs := range inv {
		r.inv[y] = sortedKeys(xs)
	}
	sort.Strings(r.all)
	return r
}

// answers is the oracle's answer set of r in one binding pattern, as the
// rows the server returns: the bindings of the free arguments, joined by
// a space (a ground query answers one empty row when it holds).
func (r relation) answers(pattern, a, b string) []string {
	switch pattern {
	case "bf":
		return r.fwd[a]
	case "fb":
		return r.inv[b]
	case "bb":
		if slices.Contains(r.fwd[a], b) {
			return []string{""}
		}
		return nil
	default:
		return r.all
	}
}

// query renders pred in one binding pattern.
func query(pred, pattern, a, b string) string {
	if pattern[0] == 'f' {
		a = "X"
	}
	if pattern[1] == 'f' {
		b = "Y"
	}
	return fmt.Sprintf("%s(%s, %s)", pred, a, b)
}

// frForm is one ad-hoc query form: predicate × binding pattern × strategy,
// listed by Zipf rank.
type frForm struct {
	slice    int
	pred     string // "anc" or "sg"
	pattern  string
	strategy string
}

func frontRead(seed uint64) *spec {
	r := newRand(seed, "front-read/data")
	rels := make([]map[string]relation, frSlices)
	var facts []fact
	var program strings.Builder
	var handles []handleSpec
	for i := range rels {
		sfx := fmt.Sprint(i)
		prefix := fmt.Sprintf("s%dn", i)
		par := dagComponent(r, prefix, frParNodes, frExtra)
		var nodes []string
		for j := 0; j < frParNodes; j++ {
			nodes = append(nodes, nodeName(prefix, j))
		}
		fam := genSG(r, fmt.Sprintf("s%dg", i), frFamilies, frFamilyDeep)
		sg := sameGeneration(fam)
		rels[i] = map[string]relation{
			"anc": newRelation(nodes, newDigraph(par).reach),
			"sg":  newRelation(fam.nodes, func(x string) []string { return sg[x] }),
		}
		facts = append(facts, edgeFacts("par"+sfx, par)...)
		facts = append(facts, fam.facts(sfx)...)
		program.WriteString(ancSGRules(sfx))
		handles = append(handles,
			handleSpec{"anc" + sfx, query("anc"+sfx, "bf", nodes[0], "")},
			handleSpec{"sg" + sfx, query("sg"+sfx, "bf", fam.nodes[0], "")})
	}
	// Ranks cycle through the strategies, so every seed gives each strategy
	// the same share of ad-hoc traffic; which predicate and binding pattern
	// sits at which rank is drawn from the seed.
	var shapes []frForm
	for i := range rels {
		for _, pred := range []string{"anc", "sg"} {
			for _, pat := range frPatterns {
				shapes = append(shapes, frForm{slice: i, pred: pred, pattern: pat})
			}
		}
	}
	var forms []frForm
	for _, i := range r.Perm(len(shapes)) {
		for _, st := range frStrategies {
			f := shapes[i]
			f.strategy = st
			forms = append(forms, f)
		}
	}
	z := newZipf(len(forms), frZipfS)
	sp := &spec{
		name:    "front-read",
		program: program.String(),
		facts:   facts,
		handles: handles,
		mix:     [numOps]int{opQuery: 50, opAdhoc: 25, opStream: 25},
		params: map[string]any{
			"slices": frSlices, "rules": 4 * frSlices, "facts": len(facts), "prepared": len(handles),
			"adhoc_forms": len(forms), "zipf_s": frZipfS, "stream_first_n": streamFirstN,
			"mix": "query 50% (prepared, magic), adhoc 25% (Zipf over forms), stream 25%",
		},
	}
	sp.newClient = func(id int) clientGen {
		r := newRand(seed, fmt.Sprintf("front-read/client%d", id))
		pick := func(rel relation) string { return rel.nodes[r.IntN(len(rel.nodes))] }
		return genFunc(func() op {
			kind := pickMix(r, sp.mix)
			if kind == opAdhoc {
				f := forms[z.draw(r)]
				rel := rels[f.slice][f.pred]
				a, b := pick(rel), pick(rel)
				return op{kind: opAdhoc, strategy: f.strategy,
					text: query(fmt.Sprintf("%s%d", f.pred, f.slice), f.pattern, a, b),
					want: rel.answers(f.pattern, a, b)}
			}
			i := r.IntN(frSlices)
			pred := [2]string{"anc", "sg"}[r.IntN(2)]
			c := pick(rels[i][pred])
			return op{kind: kind, handle: fmt.Sprintf("%s%d", pred, i), arg: c,
				want: rels[i][pred].fwd[c]}
		})
	}
	return sp
}

// durable-write sizes.
const (
	dwComps      = 48 // components per client region
	dwCompSize   = 16
	dwExtra      = 0.3
	dwFamilies   = 8
	dwFamilyDeep = 3
	dwK          = 4   // edges retracted and asserted per txn
	dwSuffix     = 400 // log records after the generated checkpoint
	dwCkptEvery  = 250 // acked commits between Database.Checkpoint calls
)

// dwViewProgram is the program the server runs for durable-write reads:
// anc is materialized in the database (Database.Materialize of the anc/sg
// program), and a program uploaded over /v1 cannot be the materialized
// *Program instance, so reads name the stored anc relation through a
// one-rule view and are answered by index lookups into it.
const dwViewProgram = "ancv(X, Y) :- anc(X, Y).\n"

func durableWrite(seed uint64, clients int) *spec {
	r := newRand(seed, "durable-write/data")
	ds := &durableSpec{matProgram: ancSGRules(""), k: dwK, ckptEvery: dwCkptEvery, fsync: "always"}
	var regions []*regionState
	for c := 0; c < clients; c++ {
		prefix := fmt.Sprintf("r%d", c)
		var edges []edge
		for comp := 0; comp < dwComps; comp++ {
			edges = append(edges, dagComponent(r, prefix+nodeName("c", comp)+"n", dwCompSize, dwExtra)...)
		}
		r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		reg := newRegion(prefix, dwComps, dwCompSize, edges)
		regions = append(regions, reg)
		ds.initial = append(ds.initial, edgeFacts("par", edges)...)
	}
	fam := genSG(r, "g", dwFamilies, dwFamilyDeep)
	ds.initial = append(ds.initial, fam.facts("")...)
	for t := 0; t < dwSuffix; t++ {
		reg := regions[t%len(regions)]
		ret, as := reg.nextTxn(r, dwK)
		reg.apply(ret, as)
		ds.suffix = append(ds.suffix, [2][]edge{ret, as})
	}
	ds.regions = regions
	sp := &spec{
		name:    "durable-write",
		program: dwViewProgram,
		handles: []handleSpec{{"ancv", "ancv(r0c0n0, Y)"}},
		mix:     [numOps]int{opQuery: 20, opTxn: 80},
		durable: ds,
		params: map[string]any{
			"base_facts": len(ds.initial), "regions": clients, "region_components": dwComps,
			"component_nodes": dwCompSize, "txn_k": dwK, "log_suffix": dwSuffix,
			"checkpoint_every": dwCkptEvery, "fsync": ds.fsync,
			"mix": "txn 80% (retract k oldest, assert k new in own region), query 20% ancv(c, Y) in own region",
		},
	}
	sp.newClient = func(id int) clientGen {
		r := newRand(seed, fmt.Sprintf("durable-write/client%d", id))
		reg := ds.regions[id].clone()
		return &dwClient{r: r, reg: reg, mix: sp.mix}
	}
	return sp
}

// dwClient writes and reads its own region only, so its region state at
// its last ack is exactly what the database holds for that region.
type dwClient struct {
	r   *rand.Rand
	reg *regionState
	mix [numOps]int
}

func (c *dwClient) next() op {
	if pickMix(c.r, c.mix) == opTxn {
		ret, as := c.reg.nextTxn(c.r, dwK)
		return op{kind: opTxn, retracts: ret, asserts: as}
	}
	x := c.reg.node(c.r.IntN(c.reg.comps), c.r.IntN(c.reg.compSize))
	return op{kind: opQuery, handle: "ancv", arg: x, want: c.reg.descendants(x)}
}

func (c *dwClient) acked(o op) { c.reg.apply(o.retracts, o.asserts) }

// genFunc is a stateless-reads client: no transactions to acknowledge.
type genFunc func() op

func (g genFunc) next() op { return g() }
func (g genFunc) acked(op) {}
