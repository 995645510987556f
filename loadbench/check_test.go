package main

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/sql"
)

// searchJSON renders a /v1/search body: explanations as (sql, belief)
// pairs in rank order, the first carrying rows.
func searchJSON(exps []refExp, rows []string) string {
	var parts []string
	for i, ex := range exps {
		p := fmt.Sprintf(`{"rank":%d,"belief":%v,"sql":%q`, i+1, ex.Belief, ex.SQL)
		if i == 0 {
			p += `,"rows":[` + strings.Join(rows, ",") + `]`
		}
		parts = append(parts, p+"}")
	}
	return `{"query":"q","explanations":[` + strings.Join(parts, ",") + `]}`
}

// concat returns a new slice holding a then extra.
func concat(a []string, extra ...string) []string {
	return append(append([]string(nil), a...), extra...)
}

func TestCheckerCatchesCorruptResponses(t *testing.T) {
	mirror := datasets.IMDB(datasets.Config{Seed: 1, Scale: 1})
	top := "SELECT movie.title, movie.rating FROM movie WHERE movie.genre = 'noir'"
	stmt, err := sql.Parse(top)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sql.Execute(mirror, stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowKeys(res.Rows)
	if len(rows) < 2 || len(rows) >= searchRowLimit {
		t.Fatalf("fixture answer has %d rows, want 2..%d", len(rows), searchRowLimit-1)
	}
	ref := []refExp{{SQL: top, Belief: 0.625}, {SQL: "SELECT movie.title FROM movie", Belief: 0.375}}

	cases := []struct {
		name   string
		body   string
		wantOK bool
	}{
		{"intact", searchJSON(ref, rows), true},
		{"intact, rows reordered", searchJSON(ref, concat(rows[1:], rows[0])), true},
		{"swapped ranks", searchJSON([]refExp{ref[1], ref[0]}, rows), false},
		{"changed belief", searchJSON([]refExp{{SQL: top, Belief: 0.6}, ref[1]}, rows), false},
		{"dropped explanation", searchJSON(ref[:1], rows), false},
		{"dropped row", searchJSON(ref, rows[1:]), false},
		{"duplicated row", searchJSON(ref, concat(rows[1:], rows[1])), false},
	}
	for _, c := range cases {
		chk := newChecker()
		chk.ref["q"] = ref
		chk.checkSearchBody("q", []byte(c.body))
		chk.verifyRows(mirror, 1)
		if chk.ok() != c.wantOK {
			t.Errorf("%s: check passed=%v, want %v (%s)", c.name, chk.ok(), c.wantOK, chk.report())
		}
	}
}

func TestCheckerHoldsSQLRowsToTheReference(t *testing.T) {
	mirror := datasets.IMDB(datasets.Config{Seed: 1, Scale: 4})
	q := "SELECT movie_id, title FROM movie"
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sql.Execute(mirror, stmt)
	if err != nil {
		t.Fatal(err)
	}
	rows := rowKeys(res.Rows)
	if len(rows) <= sqlRowLimit {
		t.Fatalf("fixture answer has %d rows, want more than %d", len(rows), sqlRowLimit)
	}
	body := func(rows []string, count int) string {
		return fmt.Sprintf(`{"columns":["movie_id","title"],"rows":[%s],"row_count":%d}`, strings.Join(rows, ","), count)
	}
	cases := []struct {
		name   string
		body   string
		wantOK bool
	}{
		{"cut short at the row limit", body(rows[:sqlRowLimit], len(rows)), true},
		{"every row, limit lifted", body(rows, len(rows)), true},
		{"dropped row", body(rows[1:], len(rows)-1), false},
		{"dropped row, count kept", body(rows[1:], len(rows)), false},
		{"cut short with a foreign row", body(concat(rows[1:sqlRowLimit], `[0,"not a movie"]`), len(rows)), false},
		{"cut short below the limit", body(rows[:sqlRowLimit-1], len(rows)), false},
	}
	for _, c := range cases {
		chk := newChecker()
		chk.checkSQLBody(q, []byte(c.body))
		chk.verifyRows(mirror, 1)
		if chk.ok() != c.wantOK {
			t.Errorf("%s: check passed=%v, want %v (%s)", c.name, chk.ok(), c.wantOK, chk.report())
		}
	}
}

func TestPassComparison(t *testing.T) {
	// Counters of the failing case seen on a two-CPU machine: the same
	// number of plans, but one statement that missed the plan cache in the
	// second pass was a different one, planned with a MATCH scan.
	base := plannerWork{planner: sql.PlannerStats{Plans: 5649, PlanCacheHits: 1698, PlanCacheMisses: 5649,
		MatchScans: 5964, FullScans: 7678, JoinReorders: 922, HashJoins: 9081, BuildSideSwaps: 2955,
		PushedPredicates: 5519, ExistsFastPaths: 6173}}
	replanned := base
	replanned.planner.MatchScans++
	replanned.planner.FullScans--
	replanned.planner.PushedPredicates++
	fewerMisses := base
	fewerMisses.planner.Plans -= 3
	fewerMisses.planner.PlanCacheMisses -= 3
	fewerMisses.planner.PlanCacheHits += 3
	moreProbes := base
	moreProbes.shardProbes = 4
	moreProbes.planner.PlanCacheMisses += 4
	moreProbes.planner.Plans += 4
	moreProbes.planner.ExistsFastPaths += 4
	for name, other := range map[string]plannerWork{"identical": base, "other statements planned": replanned,
		"fewer misses": fewerMisses, "more shard probes": moreProbes} {
		if !base.same(other) || !other.same(base) {
			t.Errorf("%s: passes that did the same work compare different", name)
		}
	}

	change := map[string]func(*sql.PlannerStats){
		"an extra lookup":       func(p *sql.PlannerStats) { p.PlanCacheHits++ },
		"an extra exists":       func(p *sql.PlannerStats) { p.ExistsFastPaths++ },
		"an extra hash join":    func(p *sql.PlannerStats) { p.HashJoins++ },
		"a nested loop instead": func(p *sql.PlannerStats) { p.HashJoins--; p.NestedLoopJoins++ },
		"another build side":    func(p *sql.PlannerStats) { p.BuildSideSwaps++ },
		"a LIMIT stop":          func(p *sql.PlannerStats) { p.LimitShortCircuits++ },
	}
	for name, f := range change {
		other := base
		f(&other.planner)
		if base.same(other) || other.same(base) {
			t.Errorf("%s: passes that did different work compare the same", name)
		}
	}
}
