package sql

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/relational"
)

// probeDB sizes every table past LazyIndexThreshold so either side of a
// join can be the probed one. cast_info carries NULL foreign keys and
// never references movies above 360 or persons above 280, so LEFT joins
// from movie and person have unmatched rows; award.movie_ref is a FLOAT
// column holding integral movie ids (3.0 must join movie 3), non-integral
// values that match nothing, and NULLs.
func probeDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	add := func(ts *relational.TableSchema) {
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	add(&relational.TableSchema{
		Name: "movie",
		Columns: []relational.Column{
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "title", Type: relational.TypeString, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
			{Name: "genre", Type: relational.TypeString},
		},
		PrimaryKey: "movie_id",
	})
	add(&relational.TableSchema{
		Name: "person",
		Columns: []relational.Column{
			{Name: "person_id", Type: relational.TypeInt, NotNull: true},
			{Name: "name", Type: relational.TypeString, NotNull: true},
		},
		PrimaryKey: "person_id",
	})
	add(&relational.TableSchema{
		Name: "cast_info",
		Columns: []relational.Column{
			{Name: "cast_id", Type: relational.TypeInt, NotNull: true},
			{Name: "movie_id", Type: relational.TypeInt},
			{Name: "person_id", Type: relational.TypeInt},
			{Name: "role", Type: relational.TypeString},
		},
		PrimaryKey: "cast_id",
		ForeignKeys: []relational.ForeignKey{
			{Column: "movie_id", RefTable: "movie", RefColumn: "movie_id"},
			{Column: "person_id", RefTable: "person", RefColumn: "person_id"},
		},
	})
	add(&relational.TableSchema{
		Name: "award",
		Columns: []relational.Column{
			{Name: "award_id", Type: relational.TypeInt, NotNull: true},
			{Name: "movie_ref", Type: relational.TypeFloat},
			{Name: "prize", Type: relational.TypeString},
		},
		PrimaryKey: "award_id",
	})
	db := relational.MustNewDatabase("probe", s)
	rng := rand.New(rand.NewSource(5))
	I, F, S, N := relational.Int, relational.Float, relational.String_, relational.Null
	genres := []string{"drama", "comedy", "thriller", "noir"}
	words := []string{"dark", "river", "storm", "night", "golden", "silent", "iron", "last"}
	for i := 1; i <= 400; i++ {
		year := relational.Value(I(int64(1960 + rng.Intn(60))))
		if rng.Intn(10) == 0 {
			year = N()
		}
		title := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		db.Insert("movie", relational.Row{I(int64(i)), S(title), year, S(genres[rng.Intn(len(genres))])})
	}
	for i := 1; i <= 300; i++ {
		db.Insert("person", relational.Row{I(int64(i)), S(fmt.Sprintf("p%d %s", i, words[rng.Intn(len(words))]))})
	}
	roles := []string{"actor", "director", "writer"}
	for i := 1; i <= 1600; i++ {
		mid := relational.Value(I(int64(1 + rng.Intn(360))))
		pid := relational.Value(I(int64(1 + rng.Intn(280))))
		if rng.Intn(9) == 0 {
			mid = N()
		}
		if rng.Intn(9) == 0 {
			pid = N()
		}
		db.Insert("cast_info", relational.Row{I(int64(i)), mid, pid, S(roles[rng.Intn(len(roles))])})
	}
	prizes := []string{"gold", "silver", "bronze", "jury", "palme", "gold", "silver", "bronze", "jury", "honorary"}
	for i := 1; i <= 500; i++ {
		ref := relational.Value(F(float64(1 + rng.Intn(400))))
		switch rng.Intn(8) {
		case 0:
			ref = F(float64(rng.Intn(400)) + 0.5)
		case 1:
			ref = N()
		}
		db.Insert("award", relational.Row{I(int64(i)), ref, S(prizes[rng.Intn(len(prizes))])})
	}
	return db
}

// probeCase is one statement the index-probe path must answer like the
// reference, with the probe it is expected to plan: the probed scan's
// binding, the index the lookups use, and whether the join-order search
// moved off the written order.
type probeCase struct {
	src       string
	probed    string // binding of the probed scan
	via       string
	reordered bool
}

var probeCases = []probeCase{
	// Left probe: a selective right scan drives lookups into the base
	// fact table's non-PK FK column.
	{`SELECT movie.title, cast_info.role FROM cast_info
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.title MATCH 'river storm'`, "cast_info", "sorted", false},
	// Right probe, non-PK column, with pushed predicates on the probed
	// table (vectorizable and interpreted).
	{`SELECT movie.title, cast_info.cast_id FROM movie
		JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE movie.year = 1990`, "cast_info", "sorted", false},
	{`SELECT movie.title, cast_info.cast_id FROM movie
		JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE movie.year = 1990 AND cast_info.role <> 'director'`, "cast_info", "sorted", false},
	{`SELECT movie.title, cast_info.cast_id FROM movie
		JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE movie.year = 1990 AND cast_info.cast_id + 1 > 400`, "cast_info", "sorted", false},
	// Right probe through the primary key; the left side's NULL keys
	// fetch nothing.
	{`SELECT cast_info.cast_id, person.name FROM cast_info
		JOIN person ON person.person_id = cast_info.person_id
		WHERE cast_info.cast_id BETWEEN 10 AND 40`, "person", "pk", false},
	// LEFT joins: unmatched rows and NULL keys null-extend, WHERE
	// conjuncts on the null-extended side run after the join, residual ON
	// conjuncts only decide matches.
	{`SELECT movie.movie_id, cast_info.cast_id FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE movie.movie_id > 350`, "cast_info", "sorted", false},
	{`SELECT movie.movie_id, cast_info.role FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		WHERE movie.movie_id > 340 AND cast_info.role IS NULL`, "cast_info", "sorted", false},
	{`SELECT movie.movie_id, cast_info.role FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id AND cast_info.role = 'actor'
		WHERE movie.movie_id > 340`, "cast_info", "sorted", false},
	{`SELECT cast_info.cast_id, person.name FROM cast_info
		LEFT JOIN person ON person.person_id = cast_info.person_id
		WHERE cast_info.cast_id < 60`, "person", "pk", false},
	// INT keys probing a FLOAT column, FLOAT keys probing an INT primary
	// key: 3 joins 3.0, 3.5 joins nothing.
	{`SELECT movie.title, award.prize FROM movie
		JOIN award ON award.movie_ref = movie.movie_id
		WHERE movie.year BETWEEN 1990 AND 1993`, "award", "sorted", false},
	{`SELECT award.award_id, movie.title FROM award
		JOIN movie ON movie.movie_id = award.movie_ref
		WHERE award.prize = 'palme'`, "movie", "pk", false},
	// Three- and four-table joins, reordered and in written order.
	{`SELECT movie.title, person.name FROM cast_info
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id = 7`, "cast_info", "sorted", true},
	{`SELECT person.name, m2.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN movie m2 ON m2.movie_id = cast_info.movie_id
		WHERE person.person_id IN (5, 9, 13)`, "cast_info", "sorted", false},
	{`SELECT * FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE person.name LIKE 'p2%' AND person.person_id < 30`, "cast_info", "sorted", false},
	{`SELECT movie.movie_id, person.name FROM movie
		LEFT JOIN cast_info ON cast_info.movie_id = movie.movie_id
		LEFT JOIN person ON person.person_id = cast_info.person_id
		WHERE movie.movie_id BETWEEN 355 AND 370`, "cast_info", "sorted", false},
	// LIMIT and DISTINCT over a probe.
	{`SELECT DISTINCT person.name FROM cast_info
		JOIN person ON person.person_id = cast_info.person_id
		WHERE cast_info.cast_id < 50 ORDER BY person.name LIMIT 4`, "person", "pk", false},
}

// probedScan returns the probe the plan makes for the given binding, or
// false when no index-probe join reads that binding.
func probedScan(qp *QueryPlan, binding string) (JoinPlan, bool) {
	for i, jp := range qp.Joins {
		if jp.Strategy != StrategyIndexProbe {
			continue
		}
		sp := qp.Scans[i+1]
		if jp.ProbeLeft {
			sp = qp.Scans[0]
		}
		if sp.Binding == binding && sp.Access == AccessIndexProbe {
			return jp, true
		}
	}
	return JoinPlan{}, false
}

func checkProbeCases(t *testing.T, db *relational.Database, cases []probeCase) {
	t.Helper()
	for _, c := range cases {
		qp := planFor(t, db, c.src)
		jp, ok := probedScan(qp, c.probed)
		if !ok {
			t.Errorf("no index probe into %s for %q: joins %+v scans %+v", c.probed, c.src, qp.Joins, qp.Scans)
		} else if jp.Via != c.via {
			t.Errorf("probe into %s via %q, want %q for %q", c.probed, jp.Via, c.via, c.src)
		}
		if qp.Reordered != c.reordered {
			t.Errorf("reordered = %v, want %v for %q (order %v)", qp.Reordered, c.reordered, c.src, qp.JoinOrder)
		}
		if err := checkEquivalent(db, c.src); err != nil {
			t.Error(err)
		}
	}
}

// TestIndexProbeEquivalence holds every index-probe shape to the
// reference interpreter as multisets, with Exists against emptiness —
// first on freshly built indexes, then after inserts that leave an
// uncollapsed side-run in the probed sorted indexes.
func TestIndexProbeEquivalence(t *testing.T) {
	db := probeDB(t)
	checkProbeCases(t, db, probeCases)

	cast := db.Table("cast_info")
	before := cast.MaintenanceStats()
	I, S := relational.Int, relational.String_
	const inserts = 40
	if inserts >= relational.SortedSideRunThreshold {
		t.Fatal("side-run must stay uncollapsed")
	}
	for i := 0; i < inserts; i++ {
		// Keys that already occur, so lookups merge main and side runs.
		row := relational.Row{I(int64(5000 + i)), I(int64(1 + i%12)), I(int64(5 + i%9)), S("actor")}
		if err := db.Insert("cast_info", row); err != nil {
			t.Fatal(err)
		}
	}
	checkProbeCases(t, db, probeCases)
	after := cast.MaintenanceStats()
	if after.SortedIndexSideInserts-before.SortedIndexSideInserts == 0 {
		t.Errorf("inserts never reached a sorted side-run: %+v", after)
	}
	if after.SortedIndexRebuilds != before.SortedIndexRebuilds {
		t.Errorf("sorted index rebuilt or collapsed (%d -> %d): the side-run path went untested",
			before.SortedIndexRebuilds, after.SortedIndexRebuilds)
	}
	if after.SortedIndexMerges == before.SortedIndexMerges {
		t.Errorf("no lookup merged main and side runs: %+v", after)
	}

	// An equality index that already exists answers the lookups instead.
	if _, err := db.Table("award").EnsureIndex("movie_ref"); err != nil {
		t.Fatal(err)
	}
	checkProbeCases(t, db, []probeCase{{`SELECT movie.title, award.prize FROM movie
		JOIN award ON award.movie_ref = movie.movie_id
		WHERE movie.year BETWEEN 2000 AND 2003`, "award", "hash", false}})
}

// TestIndexProbeConcurrentInsert runs Exists probes into cast_info from
// several goroutines while another inserts into it (make race). Writers
// exclude readers the way wrapper.FullAccessSource does; the readers
// share the table's index structures with each other and with the
// side-runs every insert grows, and each answer must match the reference
// at the same data version.
func TestIndexProbeConcurrentInsert(t *testing.T) {
	db := probeDB(t)
	stmts := []*SelectStmt{
		mustParse(t, `SELECT movie.title FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.movie_id = 398`),
		mustParse(t, `SELECT person.name FROM cast_info
			JOIN person ON person.person_id = cast_info.person_id
			WHERE person.name MATCH 'p290'`),
		mustParse(t, `SELECT cast_info.cast_id FROM movie
			JOIN cast_info ON cast_info.movie_id = movie.movie_id
			WHERE movie.year = 1975 AND cast_info.role = 'writer'`),
	}
	var mu sync.RWMutex
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				stmt := stmts[(w+i)%len(stmts)]
				mu.RLock()
				got, err := Exists(db, stmt)
				ref, rerr := ExecuteFullScan(db, stmt)
				mu.RUnlock()
				if err != nil || rerr != nil {
					errc <- fmt.Errorf("exists %v, reference %v", err, rerr)
					return
				}
				if got != (len(ref.Rows) > 0) {
					errc <- fmt.Errorf("Exists = %v, reference has %d rows: %s", got, len(ref.Rows), stmt.SQL())
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		I, S := relational.Int, relational.String_
		for i := 0; i < 120; i++ {
			// Movies 361+ and persons 281+ start unreferenced, so the
			// probes' answers flip from empty to non-empty mid-run.
			row := relational.Row{I(int64(9000 + i)), I(int64(361 + i%40)), I(int64(281 + i%20)), S("writer")}
			mu.Lock()
			err := db.Insert("cast_info", row)
			mu.Unlock()
			if err != nil {
				errc <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
