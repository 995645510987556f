package sql

import "repro/internal/relational"

// Selinger-style join-order search. For statements joining only inner
// joins, the written FROM/JOIN order is just one left-deep order among
// many; on skewed data the difference between starting from a selective
// scan and starting from the fact table is orders of magnitude of
// intermediate rows. tryReorder treats every ON conjunct and every
// join-level WHERE conjunct as one predicate pool, searches the left-deep
// orders bottom-up over subsets of the join graph with statistics-driven
// cardinality estimates, and rebuilds the plan's join steps in the
// cheapest order, re-attaching each pool predicate at the earliest step
// that sees all its relations (legal for inner joins, which is the only
// shape the search accepts).

// nonEquiSelectivity is charged for pool predicates that join relations
// without being hash-able equality pairs.
const nonEquiSelectivity = 0.5

// poolPred is one predicate in the reorder pool.
type poolPred struct {
	expr Expr
	mask uint32 // relations referenced (bit i = nodes[i])
	// Equality joins `a.x = b.y` record both sides for hash-key and
	// selectivity use; eqA/eqB are node indexes, eqAOrd/eqBOrd local
	// column ordinals. eqA < 0 for non-equi predicates.
	eqA, eqB       int
	eqAOrd, eqBOrd int
	fromOn         bool // ON-origin (vs WHERE-origin)
}

// tryReorder attempts the join-order search, rebuilding p.steps (and
// p.outCols) on success. It returns false — leaving the plan untouched —
// whenever the statement is outside the search's remit: LEFT joins (their
// order is semantics, not cost), SELECT * (output column order must follow
// the written order), more relations than ReorderMaxRelations, or ON
// predicates the full relation cannot resolve (kept on their written step
// so errors surface exactly like the reference interpreter's).
func tryReorder(p *plannedQuery, stmt *SelectStmt, nodes []*scanNode, tables []*relational.Table,
	nodeStart []int, ownerNode func(int) int, full *relation) bool {
	n := len(nodes)
	if n < 3 || n > ReorderMaxRelations {
		return false
	}
	for _, st := range p.steps {
		if st.jc.Left {
			return false
		}
	}
	for _, it := range stmt.Items {
		if it.Star {
			return false
		}
	}

	// Gather the predicate pool: every ON conjunct plus every WHERE
	// conjunct placeConjunct parked on a join step. Scan-pushed conjuncts
	// stay where they are — they are order-independent. ON conjuncts
	// resolve against the relation visible at their own written step (the
	// prefix the reference interpreter sees), not the full relation: a
	// forward reference to a table joined later must keep the written
	// order so it fails exactly like the interpreter, never be silently
	// legalized by the reorder.
	var pool []poolPred
	collect := func(e Expr, visible *relation, fromOn bool) bool {
		if containsAgg(e) {
			return false
		}
		var refs []*ColumnRef
		collectRefs(e, &refs)
		pp := poolPred{expr: e, eqA: -1, fromOn: fromOn}
		for _, r := range refs {
			ord, err := visible.resolve(r)
			if err != nil {
				return false
			}
			pp.mask |= 1 << uint(ownerNode(ord))
		}
		if be, ok := e.(*BinaryExpr); ok && be.Op == OpEq {
			lr, lok := be.Left.(*ColumnRef)
			rr, rok := be.Right.(*ColumnRef)
			if lok && rok {
				lo, lerr := visible.resolve(lr)
				ro, rerr := visible.resolve(rr)
				if lerr == nil && rerr == nil {
					a, b := ownerNode(lo), ownerNode(ro)
					if a != b {
						pp.eqA, pp.eqAOrd = a, lo-nodeStart[a]
						pp.eqB, pp.eqBOrd = b, ro-nodeStart[b]
					}
				}
			}
		}
		pool = append(pool, pp)
		return true
	}
	for si, st := range p.steps {
		// Columns visible at written step si: the base table plus the
		// right tables of steps 0..si. Prefix ordinals agree with the full
		// relation's, so ownerNode applies unchanged.
		visible := &relation{cols: full.cols[:nodeStart[si+1]+len(nodes[si+1].cols)]}
		for _, c := range splitAnd(st.jc.On) {
			if !collect(c, visible, true) {
				return false
			}
		}
		for _, c := range st.where {
			if !collect(c, full, false) {
				return false
			}
		}
	}

	// Effective per-relation rows: the scan estimate scaled by the pool
	// predicates confined to that relation (they will be pushed into the
	// scan during the rebuild). Constant predicates (mask 0) end up on the
	// base scan and do not influence order choice.
	effRows := make([]float64, n)
	for i, node := range nodes {
		effRows[i] = float64(node.est)
		local := &relation{cols: node.cols}
		for _, pp := range pool {
			if pp.mask != 0 && pp.mask&^(1<<uint(i)) == 0 {
				effRows[i] *= predSelectivity(tables[i], local, pp.expr)
			}
		}
	}

	distinctOf := func(rel, localOrd int) int {
		return columnDistinct(tables[rel], nodes[rel], localOrd)
	}
	// stepSelectivity returns the combined selectivity of the pool
	// predicates that become placeable when relation j joins mask (their
	// last relation is j), excluding single-relation predicates already
	// folded into effRows.
	stepSelectivity := func(mask uint32, j int) float64 {
		bit := uint32(1) << uint(j)
		sel := 1.0
		for _, pp := range pool {
			if pp.mask&bit == 0 || pp.mask&^bit == 0 || pp.mask&^(mask|bit) != 0 {
				continue
			}
			if pp.eqA >= 0 {
				sel *= equiSelectivity(distinctOf(pp.eqA, pp.eqAOrd), distinctOf(pp.eqB, pp.eqBOrd))
			} else {
				sel *= nonEquiSelectivity
			}
		}
		return sel
	}
	connects := func(mask uint32, j int) bool {
		bit := uint32(1) << uint(j)
		for _, pp := range pool {
			if pp.mask&bit != 0 && pp.mask&^bit != 0 && pp.mask&mask != 0 {
				return true
			}
		}
		return false
	}

	// Bottom-up DP over left-deep orders: cost is the sum of intermediate
	// result sizes. Cross products are only considered when no connected
	// extension exists (disconnected join graphs must still complete).
	type dpEntry struct {
		rows  float64
		cost  float64
		order []int
		ok    bool
	}
	best := make([]dpEntry, 1<<uint(n))
	for i := 0; i < n; i++ {
		best[1<<uint(i)] = dpEntry{rows: effRows[i], order: []int{i}, ok: true}
	}
	fullMask := uint32(1<<uint(n)) - 1
	for mask := uint32(1); mask <= fullMask; mask++ {
		e := best[mask]
		if !e.ok || mask == fullMask {
			continue
		}
		anyConnected := false
		for j := 0; j < n; j++ {
			if mask&(1<<uint(j)) == 0 && connects(mask, j) {
				anyConnected = true
				break
			}
		}
		for j := 0; j < n; j++ {
			bit := uint32(1) << uint(j)
			if mask&bit != 0 {
				continue
			}
			if anyConnected && !connects(mask, j) {
				continue
			}
			rows := e.rows * effRows[j] * stepSelectivity(mask, j)
			cost := e.cost + rows
			nm := mask | bit
			if !best[nm].ok || cost < best[nm].cost {
				order := make([]int, len(e.order)+1)
				copy(order, e.order)
				order[len(e.order)] = j
				best[nm] = dpEntry{rows: rows, cost: cost, order: order, ok: true}
			}
		}
	}
	final := best[fullMask]
	if !final.ok {
		return false
	}
	order := final.order
	identity := true
	for i, r := range order {
		if r != i {
			identity = false
			break
		}
	}
	if !identity {
		counters.joinReorders.Add(1)
		p.reordered = true
	}

	// Rebuild the plan in the chosen order, attaching every pool predicate
	// at the earliest step that sees all its relations.
	p.base = nodes[order[0]]
	placed := make([]bool, len(pool))
	for pi, pp := range pool {
		if pp.mask&^(1<<uint(order[0])) == 0 { // base-only or constant
			p.base.pushed = append(p.base.pushed, pp.expr)
			placed[pi] = true
		}
	}
	p.base.finishEstimate(tables[order[0]], p.base.probeSize(tables[order[0]]))

	// offsets[rel] is where rel's columns start in the rebuilt accumulated
	// relation (-1 = not yet joined).
	offsets := make([]int, n)
	for i := range offsets {
		offsets[i] = -1
	}
	offsets[order[0]] = 0
	accum := append([]boundCol{}, p.base.cols...)
	placedMask := uint32(1) << uint(order[0])
	leftRows := float64(p.base.est)
	leftEst := p.base.est

	steps := make([]*joinStep, 0, n-1)
	for _, r := range order[1:] {
		node := nodes[r]
		bit := uint32(1) << uint(r)
		newMask := placedMask | bit
		st := &joinStep{right: node}
		// First pass: claim every predicate placeable at this step and sort
		// it into equi keys vs other join predicates.
		var equis, others []poolPred
		stepSel := 1.0
		for pi, pp := range pool {
			if placed[pi] || pp.mask&^newMask != 0 {
				continue
			}
			placed[pi] = true
			if pp.mask&^bit == 0 {
				// Confined to the incoming relation: evaluate during its
				// scan (inner joins make the pushdown legal).
				node.pushed = append(node.pushed, pp.expr)
				continue
			}
			if pp.eqA >= 0 && (pp.eqA == r || pp.eqB == r) {
				equis = append(equis, pp)
				stepSel *= equiSelectivity(distinctOf(pp.eqA, pp.eqAOrd), distinctOf(pp.eqB, pp.eqBOrd))
				continue
			}
			others = append(others, pp)
			stepSel *= nonEquiSelectivity
		}
		// Second pass: route each predicate to exactly one evaluation
		// point. With equi keys the step hash-joins — keys drive the build,
		// the rest re-checks as residual (ON-origin) or post-join filter
		// (WHERE-origin). Without keys the step is a nested loop, which
		// evaluates only the ON conjunction, so everything goes there.
		if len(equis) > 0 {
			var onParts []Expr
			for _, pp := range equis {
				la, lo, ra := pp.eqA, pp.eqAOrd, pp.eqBOrd
				if pp.eqA == r {
					la, lo, ra = pp.eqB, pp.eqBOrd, pp.eqAOrd
				}
				st.lk = append(st.lk, offsets[la]+lo)
				st.rk = append(st.rk, ra)
				onParts = append(onParts, pp.expr)
			}
			for _, pp := range others {
				onParts = append(onParts, pp.expr)
				if pp.fromOn {
					st.residual = append(st.residual, pp.expr)
				} else {
					st.where = append(st.where, pp.expr)
				}
			}
			// On records the step's full join condition for introspection;
			// the hash path never evaluates it.
			st.jc = JoinClause{Table: node.tr, On: andAll(onParts)}
		} else {
			onParts := make([]Expr, 0, len(others))
			for _, pp := range others {
				onParts = append(onParts, pp.expr)
			}
			st.jc = JoinClause{Table: node.tr, On: andAll(onParts)}
		}
		node.finishEstimate(tables[r], node.probeSize(tables[r]))
		offsets[r] = len(accum)
		accum = append(append([]boundCol{}, accum...), node.cols...)
		st.outCols = accum
		leftRows = leftRows * float64(node.est) * stepSel
		st.est = clampEst(leftRows)
		st.buildLeft = leftEst < node.est
		p.chooseProbe(len(steps), st, accum, leftEst, tables[order[0]], tables[r])
		leftEst = st.est
		placedMask = newMask
		steps = append(steps, st)
	}
	p.steps = steps
	p.outCols = accum
	return true
}

// probeSize is the scan's pre-filter row count: the captured probe result
// for index access paths, the whole table otherwise.
func (n *scanNode) probeSize(t *relational.Table) int {
	if n.access != AccessFullScan {
		return len(n.ords)
	}
	return t.Len()
}

// andAll folds expressions into one conjunction; the empty conjunction is
// TRUE (a pure cross-product step accepts every candidate).
func andAll(exprs []Expr) Expr {
	if len(exprs) == 0 {
		return &Literal{Value: relational.Bool(true)}
	}
	e := exprs[0]
	for _, x := range exprs[1:] {
		e = &BinaryExpr{Op: OpAnd, Left: e, Right: x}
	}
	return e
}
