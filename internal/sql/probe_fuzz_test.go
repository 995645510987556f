package sql

import (
	"fmt"
	"strings"
	"testing"
)

// fuzzCol is one real column of probeDB with the literals its predicates
// draw from.
type fuzzCol struct {
	name string
	lits []string
	text bool // LIKE / MATCH apply
}

var fuzzTables = map[string][]fuzzCol{
	"movie": {
		{name: "movie_id", lits: []string{"3", "17", "350", "361", "399"}},
		{name: "title", lits: []string{"'dark river'", "'storm'", "'golden night'"}, text: true},
		{name: "year", lits: []string{"1960", "1975", "1990", "2005.0", "NULL"}},
		{name: "genre", lits: []string{"'noir'", "'drama'", "'western'"}, text: true},
	},
	"person": {
		{name: "person_id", lits: []string{"1", "7", "90", "280", "290"}},
		{name: "name", lits: []string{"'p7 dark'", "'river'", "'p12'"}, text: true},
	},
	"cast_info": {
		{name: "cast_id", lits: []string{"5", "40", "800", "1599"}},
		{name: "movie_id", lits: []string{"3", "17", "360.0", "NULL"}},
		{name: "person_id", lits: []string{"1", "7", "280", "NULL"}},
		{name: "role", lits: []string{"'actor'", "'director'", "'extra'"}, text: true},
	},
	"award": {
		{name: "award_id", lits: []string{"1", "250", "499"}},
		{name: "movie_ref", lits: []string{"3", "3.5", "120.0", "NULL"}},
		{name: "prize", lits: []string{"'palme'", "'gold'", "'jury'"}, text: true},
	},
}

var fuzzTableNames = []string{"movie", "person", "cast_info", "award"}

// fuzzEdges are the declared foreign keys plus award's FLOAT reference.
var fuzzEdges = [][4]string{
	{"cast_info", "movie_id", "movie", "movie_id"},
	{"cast_info", "person_id", "person", "person_id"},
	{"award", "movie_ref", "movie", "movie_id"},
}

// fuzzBytes hands out the fuzz input one decision at a time, reading zero
// once the input runs out, so every input decodes to a statement.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) pick(n int) int {
	if f.i >= len(f.b) {
		return 0
	}
	v := int(f.b[f.i])
	f.i++
	return v % n
}

// decodeProbeJoin turns fuzz bytes into a well-formed join statement over
// probeDB: one to three FK joins (inner or LEFT, self-joins aliased),
// literal predicates on real columns in WHERE or as residual ON
// conjuncts, and a projection of real columns.
func decodeProbeJoin(data []byte) string {
	in := &fuzzBytes{b: data}
	type binding struct{ name, table string }
	base := fuzzTableNames[in.pick(len(fuzzTableNames))]
	bindings := []binding{{base, base}}
	pred := func(b binding) string {
		cols := fuzzTables[b.table]
		c := cols[in.pick(len(cols))]
		ref := b.name + "." + c.name
		lit := c.lits[in.pick(len(c.lits))]
		switch in.pick(9) {
		case 0:
			return ref + " = " + lit
		case 1:
			return ref + " <> " + lit
		case 2:
			return ref + " < " + lit
		case 3:
			return ref + " >= " + lit
		case 4:
			return ref + " IS NULL"
		case 5:
			return ref + " IS NOT NULL"
		case 6:
			return fmt.Sprintf("%s IN (%s, %s)", ref, lit, c.lits[in.pick(len(c.lits))])
		case 7:
			if c.text {
				return ref + " MATCH " + lit
			}
			return fmt.Sprintf("%s BETWEEN %s AND %s", ref, lit, c.lits[in.pick(len(c.lits))])
		default:
			if c.text {
				return ref + " LIKE '%" + strings.Trim(lit, "'")[:1] + "%'"
			}
			return ref + " > " + lit
		}
	}

	var b strings.Builder
	b.WriteString(" FROM " + base)
	for j, n := 0, 1+in.pick(3); j < n; j++ {
		// An FK edge with one end on a table already joined.
		var cands [][2]string // {existing binding.col, new table.col}
		for _, e := range fuzzEdges {
			for _, have := range bindings {
				if have.table == e[0] {
					cands = append(cands, [2]string{have.name + "." + e[1], e[2] + "." + e[3]})
				}
				if have.table == e[2] {
					cands = append(cands, [2]string{have.name + "." + e[3], e[0] + "." + e[1]})
				}
			}
		}
		c := cands[in.pick(len(cands))]
		table, col, _ := strings.Cut(c[1], ".")
		nb := binding{table, table}
		for _, have := range bindings {
			if have.name == table {
				nb.name = fmt.Sprintf("t%d", j)
			}
		}
		kind := " JOIN "
		if in.pick(3) == 0 {
			kind = " LEFT JOIN "
		}
		b.WriteString(kind + table)
		if nb.name != table {
			b.WriteString(" " + nb.name)
		}
		on := nb.name + "." + col + " = " + c[0]
		if in.pick(2) == 0 {
			on = c[0] + " = " + nb.name + "." + col
		}
		if in.pick(4) == 0 {
			on += " AND " + pred(nb)
		}
		b.WriteString(" ON " + on)
		bindings = append(bindings, nb)
	}
	var where []string
	for n := in.pick(4); n > 0; n-- {
		where = append(where, pred(bindings[in.pick(len(bindings))]))
	}
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}

	sel := "SELECT "
	if in.pick(3) == 0 {
		sel += "DISTINCT "
	}
	var items []string
	for n := 1 + in.pick(3); n > 0; n-- {
		bd := bindings[in.pick(len(bindings))]
		cols := fuzzTables[bd.table]
		items = append(items, bd.name+"."+cols[in.pick(len(cols))].name)
	}
	return sel + strings.Join(items, ", ") + b.String()
}

// FuzzProbeJoinEquivalence holds the planner — index-probe joins, hash
// joins and the join-order search alike — to the reference interpreter on
// decoded FK join statements: equal rows as multisets, equal errors, and
// Exists agreeing with emptiness.
func FuzzProbeJoinEquivalence(f *testing.F) {
	db := probeDB(f) // seeds: testdata/fuzz/FuzzProbeJoinEquivalence
	f.Fuzz(func(t *testing.T, data []byte) {
		src := decodeProbeJoin(data)
		if err := checkEquivalent(db, src); err != nil {
			t.Fatal(err)
		}
	})
}
