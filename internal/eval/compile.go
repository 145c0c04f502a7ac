// Compilation of rules into ID-space join pipelines.
//
// Each rule is compiled once per Prepared program and delta-occurrence
// variant into the flat pipeline of plan.go. The compiler
//
//   - assigns every rule variable a slot in the register file,
//   - orders the body literals with sip.JoinOrder, forcing the delta
//     occurrence to the front so the semi-naive join is driven from the
//     round's new rows; a variant with no delta occurrence (a component's
//     first pass, or a naive round) starts at the first derived literal in
//     textual order instead,
//   - records per literal its predicate slot and the rows of its relation
//     the variant reads (Prepared.rangeKinds: the delta range, the rows
//     before it, or every row),
//   - splits each literal's arguments into bound probe columns (value
//     expressions evaluated against the relation's hash index) and free
//     columns (pattern programs that bind or test registers), and
//   - lowers the head into build-mode value expressions.
//
// Join ordering. sip.JoinOrder is the greedy bound-variables-first
// heuristic that the rewritings use (sip.GreedyOrder), refined for
// evaluation only: a literal whose arguments are all covered is an
// existence test and is joined as soon as it is, and a literal whose new
// variables feed only the head is joined last, since its matches would
// multiply the work of every literal after it. The rewritten programs do
// not depend on it.
//
// Starting a first pass at a derived literal is what keeps a rewritten
// program goal-directed. No variable is bound yet, so the greedy tie-break
// alone would pick a base literal and scan the whole EDB relation; the
// magic, supplementary and counting rewritings put their guard literal
// (magic_p, sup_r_i, cnt_p) first among the derived ones, so the pass is
// driven from the few facts relevant to the query and probes the base
// relations through their indexes.
//
// Boundness is fully static: a variable is bound exactly when an earlier
// literal in the chosen order (or an earlier argument of the same literal)
// contains it, which coincides with the dynamic substitution of the
// term-space evaluator. Rules whose bodies contain interpreted arithmetic
// keep their textual order: affine matching ("I+1 matches 5 by solving for
// I") depends on which variables are bound when the literal is reached, so
// reordering such a body could change its meaning, not just its cost.
package eval

import (
	"repro/internal/ast"
	"repro/internal/intern"
	"repro/internal/sip"
)

// bodyHasArith reports whether any body argument contains an interpreted
// arithmetic functor.
func bodyHasArith(r ast.Rule) bool {
	for _, lit := range r.Body {
		for _, arg := range lit.Args {
			if ast.ContainsArith(arg) {
				return true
			}
		}
	}
	return false
}

// firstDerived returns the position of the first derived body literal in
// textual order, or -1 if the body has none. The magic, supplementary and
// counting rewritings put their guard literal there.
func firstDerived(r ast.Rule, derived map[string]bool) int {
	for i, lit := range r.Body {
		if derived[lit.PredKey()] {
			return i
		}
	}
	return -1
}

// compiler carries the per-rule compilation state.
type compiler struct {
	tab   *intern.Table
	regs  map[string]int
	bound map[string]bool
	// preBound snapshots the bound set at the start of the literal being
	// compiled: the variables the term-space evaluator would substitute
	// (and arithmetic-fold) when instantiating the literal. It decides the
	// preFolded flag of arithmetic patterns.
	preBound map[string]bool
	nregs    int
}

// regOf returns the register of a variable, allocating one on first sight.
func (c *compiler) regOf(name string) int {
	if r, ok := c.regs[name]; ok {
		return r
	}
	r := c.nregs
	c.regs[name] = r
	c.nregs++
	return r
}

// compileRule lowers one rule into a pipeline with the literal at deltaPos
// (if >= 0) reading the round's delta rows. The produced pipeline is immutable
// (all run-time scratch lives in a per-evaluation pipeScratch), so it can be
// shared by concurrent evaluations of the same Prepared program.
func compileRule(pp *Prepared, ruleIdx, deltaPos int) *pipeline {
	r := pp.program.Rules[ruleIdx]
	var order []int
	if bodyHasArith(r) {
		// Preserve the textual order: affine arithmetic matching is
		// order-sensitive (see the package comment).
		order = make([]int, len(r.Body))
		for i := range order {
			order[i] = i
		}
	} else {
		first := deltaPos
		if first < 0 {
			first = firstDerived(r, pp.derived)
		}
		order = sip.JoinOrder(r.Body, nil, pp.derived, first)
	}
	kinds := pp.rangeKinds(ruleIdx, deltaPos)

	c := &compiler{tab: pp.tab, regs: make(map[string]int), bound: make(map[string]bool)}
	pl := &pipeline{ruleIdx: ruleIdx, rule: r, headOK: true}

	for _, pos := range order {
		lit := r.Body[pos]
		st := step{lit: lit, slot: pp.bodySlots[ruleIdx][pos], rng: kinds[pos]}
		// First pass: decide bound vs free per argument against the
		// pre-literal bound set, mirroring the term-space evaluator which
		// derives the probe columns from the substitution before the
		// literal binds anything.
		isBound := make([]bool, len(lit.Args))
		for i, arg := range lit.Args {
			isBound[i] = c.allVarsBound(arg)
		}
		c.preBound = make(map[string]bool, len(c.bound))
		for v := range c.bound {
			c.preBound[v] = true
		}
		for i, arg := range lit.Args {
			arg = ast.EvalArith(arg)
			if isBound[i] {
				st.cols = append(st.cols, i)
				st.vals = append(st.vals, c.compileVal(arg))
			} else {
				st.free = append(st.free, i)
				st.ops = append(st.ops, c.compilePat(arg))
			}
		}
		pl.steps = append(pl.steps, st)
	}

	// Head: every argument must be covered by the body for the rule to be
	// safe; otherwise firing reports ErrNonGroundFact like the term-space
	// evaluator.
	pl.headSlot = pp.headSlots[ruleIdx]
	pl.headArity = len(r.Head.Args)
	for _, arg := range r.Head.Args {
		if !c.allVarsBound(arg) {
			pl.headOK = false
			break
		}
	}
	if pl.headOK {
		for _, arg := range r.Head.Args {
			pl.head = append(pl.head, c.compileVal(ast.EvalArith(arg)))
		}
	} else {
		pl.boundRegs = make(map[string]int)
		for name := range c.bound {
			pl.boundRegs[name] = c.regs[name]
		}
	}

	pl.nregs = c.nregs
	return pl
}

// allVarsBound reports whether every variable of the term is statically
// bound (a variable-free term counts as bound iff it is ground).
func (c *compiler) allVarsBound(t ast.Term) bool {
	switch x := t.(type) {
	case ast.Var:
		return c.bound[x.Name]
	case ast.Compound:
		for _, a := range x.Args {
			if !c.allVarsBound(a) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// compileVal lowers a term whose variables are all bound into a value
// expression. The term has already been constant-folded with ast.EvalArith.
func (c *compiler) compileVal(t ast.Term) valExpr {
	if ast.IsGround(t) {
		return valExpr{kind: vConst, id: c.tab.Intern(t), arithGround: ast.ContainsArith(t)}
	}
	switch x := t.(type) {
	case ast.Var:
		return valExpr{kind: vReg, reg: c.regOf(x.Name)}
	case ast.Compound:
		args := make([]valExpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.compileVal(a)
		}
		if (x.Functor == ast.FunctorAdd || x.Functor == ast.FunctorMul) && len(x.Args) == 2 {
			return valExpr{kind: vArith, mul: x.Functor == ast.FunctorMul, args: args}
		}
		return valExpr{kind: vComp, functor: x.Functor, args: args}
	}
	panic("eval: compileVal on unbound variable")
}

// compilePat lowers a term containing at least one unbound variable into a
// pattern program, marking its variables bound as they first occur (the
// argument and subterm order is the order ast.MatchAtom binds them in).
func (c *compiler) compilePat(t ast.Term) patNode {
	if ast.IsGround(t) {
		return patNode{kind: pConst, id: c.tab.Intern(t)}
	}
	switch x := t.(type) {
	case ast.Var:
		reg := c.regOf(x.Name)
		if c.bound[x.Name] {
			return patNode{kind: pTest, reg: reg}
		}
		c.bound[x.Name] = true
		return patNode{kind: pBind, reg: reg}
	case ast.Compound:
		if (x.Functor == ast.FunctorAdd || x.Functor == ast.FunctorMul) && len(x.Args) == 2 {
			// Build the affine program against the pre-node bound set, then
			// the structural branch (which marks the pattern's variables
			// bound; the affine branch binds the same set when it succeeds).
			preFolded := true
			for _, v := range ast.Vars(t, nil) {
				if !c.preBound[v] {
					preFolded = false
					break
				}
			}
			aff := c.compileAff(t)
			args := make([]patNode, len(x.Args))
			for i, a := range x.Args {
				args[i] = c.compilePat(a)
			}
			return patNode{kind: pArith, functor: x.Functor, args: args, aff: aff, preFolded: preFolded}
		}
		args := make([]patNode, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.compilePat(a)
		}
		return patNode{kind: pComp, functor: x.Functor, args: args}
	}
	panic("eval: compilePat on non-term")
}

// compileAff lowers a pattern into an affine program, the compiled form of
// ast.affineForm: integer leaves are constants, bound variables contribute
// their run-time value, the statically unbound variable is the solve target,
// and anything else poisons the form (afFail), making affine matching fail
// exactly where the term-space matcher's does.
func (c *compiler) compileAff(t ast.Term) *affNode {
	switch x := t.(type) {
	case ast.Int:
		return &affNode{kind: afConst, c: x.Value}
	case ast.Var:
		if c.bound[x.Name] {
			return &affNode{kind: afReg, reg: c.regOf(x.Name)}
		}
		return &affNode{kind: afVar, reg: c.regOf(x.Name)}
	case ast.Compound:
		if (x.Functor == ast.FunctorAdd || x.Functor == ast.FunctorMul) && len(x.Args) == 2 {
			kind := afAdd
			if x.Functor == ast.FunctorMul {
				kind = afMul
			}
			return &affNode{kind: kind, l: c.compileAff(x.Args[0]), r: c.compileAff(x.Args[1])}
		}
		return &affNode{kind: afFail}
	default:
		return &affNode{kind: afFail}
	}
}
