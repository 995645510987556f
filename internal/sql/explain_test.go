package sql

import (
	"strings"
	"testing"

	"repro/internal/datasets"
	"repro/internal/relational"
)

func TestExplainHashJoin(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		WHERE cast_info.role = 'actor' ORDER BY person.name LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"LIMIT 5",
		"SORT BY person.name ASC",
		"PROJECT person.name",
		"FILTER",
		"HASH JOIN cast_info",
		"SCAN person",
	} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
}

func TestExplainNestedLoop(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT m1.title FROM movie m1 JOIN movie m2 ON m1.year < m2.year`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "NESTED LOOP JOIN movie AS m2") {
		t.Errorf("plan missing nested loop:\n%s", plan)
	}
}

func TestExplainLeftJoin(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT movie.title FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "LEFT HASH JOIN cast_info") {
		t.Errorf("plan missing left hash join:\n%s", plan)
	}
}

func TestExplainAggregate(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT role, COUNT(*) FROM cast_info
		GROUP BY role HAVING COUNT(*) > 1`)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"AGGREGATE GROUP BY role", "HAVING"} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
	// Global aggregate.
	plan, err = ExplainQuery(db, "SELECT COUNT(*) FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "AGGREGATE (single group)") {
		t.Errorf("plan missing global aggregate:\n%s", plan)
	}
}

func TestExplainResidualPredicate(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, `SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id AND cast_info.role = 'actor'`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "residual") {
		t.Errorf("plan missing residual predicate:\n%s", plan)
	}
}

func TestExplainErrors(t *testing.T) {
	db := testDB(t)
	if _, err := ExplainQuery(db, "SELECT * FROM nope"); err == nil {
		t.Fatal("unknown table must error")
	}
	if _, err := ExplainQuery(db, "not sql at all"); err == nil {
		t.Fatal("parse error must propagate")
	}
}

func TestExplainRowCounts(t *testing.T) {
	db := testDB(t)
	plan, err := ExplainQuery(db, "SELECT * FROM movie")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "SCAN movie (4 rows)") {
		t.Errorf("plan missing row count:\n%s", plan)
	}
}

// TestExplainAnalyzeStatsFreshness pins the estimate-provenance rendering:
// a scan costed from freshly built statistics is annotated fresh, a scan
// costed after an in-budget insert is annotated budget-stale (the delta
// path served the estimate), and a scan over a sampled rebuild says so.
func TestExplainAnalyzeStatsFreshness(t *testing.T) {
	db := testDB(t)
	// The OR keeps the scan off the sorted index once the table is large,
	// so its estimate still comes from column statistics.
	stmt, err := Parse("SELECT title FROM movie WHERE year > 1990 OR year < 1900")
	if err != nil {
		t.Fatal(err)
	}
	analyze := func() string {
		t.Helper()
		plan, err := ExplainAnalyze(db, stmt)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}

	if plan := analyze(); !strings.Contains(plan, "[stats: fresh]") {
		t.Errorf("first analyze should cost from fresh statistics:\n%s", plan)
	}

	// One in-budget insert: the next plan re-consults statistics (the
	// table version moved), the delta path serves them, and the scan
	// reports the estimate as budget-stale.
	I, F, S := relational.Int, relational.Float, relational.String_
	if err := db.Insert("movie", relational.Row{I(99), S("delta movie"), I(2020), F(6.0)}); err != nil {
		t.Fatal(err)
	}
	if plan := analyze(); !strings.Contains(plan, "[stats: budget-stale]") {
		t.Errorf("post-insert analyze should report budget-stale statistics:\n%s", plan)
	}

	// Grow the table past StatsSampleRows: the burst overruns the staleness
	// budget, so the next plan forces a rebuild, and at this size the
	// rebuild samples. The new rows fall in 1900..1979, outside the result.
	movies := db.Table("movie")
	for id := int64(100); movies.Len() < relational.StatsSampleRows; id++ {
		if err := db.Insert("movie", relational.Row{I(id), S("filler"), I(1900 + id%80), F(5.0)}); err != nil {
			t.Fatal(err)
		}
	}
	if plan := analyze(); !strings.Contains(plan, "[stats: sampled]") {
		t.Errorf("analyze over a sampled rebuild should say so:\n%s", plan)
	}
}

// TestExplainAnalyzeIndexProbeJoin pins the index-probe rendering on the
// IMDB instance: the MATCH-selected persons stream, each looks its key up
// in cast_info's sorted person_id index, and the probed cast_info scan
// reports the 128 rows it fetched rather than the table's 8,392.
func TestExplainAnalyzeIndexProbeJoin(t *testing.T) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 8})
	if n := db.Table("cast_info").Len(); n != 8392 {
		t.Fatalf("cast_info has %d rows, want 8392", n)
	}
	stmt, err := Parse(`SELECT DISTINCT person.name, cast_info.cast_id FROM cast_info
		JOIN person ON (person.person_id = cast_info.person_id) WHERE (person.name MATCH 'carter')`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := ExplainAnalyze(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		"INDEX PROBE JOIN cast_info on cast_info.person_id = person.person_id via sorted",
		"MATCH SCAN person (name MATCH 'carter'",
		"PROBE SCAN cast_info (person_id = person.person_id",
		"(128 actual rows)",
	} {
		if !strings.Contains(plan, frag) {
			t.Errorf("plan missing %q:\n%s", frag, plan)
		}
	}
	if strings.Contains(plan, "HASH JOIN") || strings.Contains(plan, "SCAN cast_info (8392 rows)") {
		t.Errorf("cast_info must be probed, not scanned and hashed:\n%s", plan)
	}
}
