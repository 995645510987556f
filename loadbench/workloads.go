package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/relational"
	"repro/internal/sql"
)

// spec fixes one workload: the deployment shape, the open-loop arrival
// rate, the latency limit its capacity is measured against and its share
// of writes. Why each workload exists is recorded in BENCHMARK.json.
type spec struct {
	shape      shapeKind
	reads      bool          // SQL reads rather than keyword searches
	rate       float64       // open-loop arrivals per second
	limit      time.Duration // a completion slower than this does not count toward capacity
	writeEvery int           // every writeEvery-th request is an insert; 0 for none
}

var specs = map[string]spec{
	"search-single":  {shape: shapeSingle, rate: 100, limit: 50 * time.Millisecond},
	"sql-remote":     {shape: shapeRemote, reads: true, rate: 100, limit: 50 * time.Millisecond},
	"mixed-rw-local": {shape: shapeSingle, reads: true, rate: 500, limit: 50 * time.Millisecond, writeEvery: 5},
	// BENCHMARK.json leaves the next two out (see GLOSSARY.md); they stay
	// runnable by name. A remote search is too slow for a run to see
	// enough of them to measure steadily, and mixed-rw deadlocks the
	// shard servers.
	"search-remote": {shape: shapeRemote, rate: 15, limit: 100 * time.Millisecond},
	"mixed-rw":      {shape: shapeRemoteWAL, reads: true, rate: 150, limit: 50 * time.Millisecond, writeEvery: 5},
}

// perTemplate is how many keyword queries are drawn per eval template
// before duplicates are removed; 200 gives about 620 distinct queries,
// 2.4 times the engine's 256-entry query cache, and the stream repeats
// none within a cycle, so searches miss that cache. (The remote shape's
// warm-up pass costs about 45 ms per query, which bounds the population.)
const perTemplate = 200

// insertBase is the first primary key inserts use, past every generated
// movie id.
const insertBase = 1_000_000

// query is one distinct keyword query and its gold answer.
type query struct {
	text string
	gold *eval.Query
}

// searchPopulation draws the keyword queries from the eval templates.
func searchPopulation(db *relational.Database, seed int64) []query {
	w := eval.NewGenerator(db, seed).Generate("imdb", eval.IMDBTemplates(), perTemplate)
	seen := map[string]bool{}
	var out []query
	for _, q := range w.Queries {
		text := q.String()
		if !seen[text] {
			seen[text] = true
			out = append(out, query{text: text, gold: q})
		}
	}
	return out
}

// readPopulation draws the read statements of the mixed workloads,
// grouped by shape: range counts over movie (the written table), row
// reads over movie, range counts over person (never written), and a
// movie⋈cast_info⋈person join. Every movie shape bounds production_year
// below the years inserts use.
func readPopulation(seed int64) [][]string {
	rng := rand.New(rand.NewSource(seed))
	shapes := make([][]string, 4)
	seen := map[string]bool{}
	add := func(shape int, s string) {
		if !seen[s] {
			seen[s] = true
			shapes[shape] = append(shapes[shape], s)
		}
	}
	for i := 0; i < 120; i++ {
		y := 1950 + rng.Intn(60)
		add(0, fmt.Sprintf("SELECT COUNT(*) AS n FROM movie WHERE production_year >= %d AND production_year < %d AND rating >= %d.%d",
			y, y+3+rng.Intn(10), 2+rng.Intn(7), rng.Intn(10)))
	}
	for i := 0; i < 60; i++ {
		add(1, fmt.Sprintf("SELECT movie_id, title, rating FROM movie WHERE production_year = %d AND rating >= %d.%d",
			1950+rng.Intn(65), 2+rng.Intn(7), rng.Intn(10)))
	}
	for i := 0; i < 60; i++ {
		y := 1920 + rng.Intn(80)
		add(2, fmt.Sprintf("SELECT COUNT(*) AS n FROM person WHERE birth_year >= %d AND birth_year < %d", y, y+5+rng.Intn(20)))
	}
	for i := 0; i < 30; i++ {
		add(3, fmt.Sprintf("SELECT person.name, movie.title FROM movie"+
			" JOIN cast_info ON cast_info.movie_id = movie.movie_id"+
			" JOIN person ON person.person_id = cast_info.person_id"+
			" WHERE movie.production_year = %d AND movie.rating >= %d.%d",
			1950+rng.Intn(65), 5+rng.Intn(4), rng.Intn(10)))
	}
	return shapes
}

// traffic is a workload's request population and the state its answers
// are checked against.
type traffic struct {
	spec    spec
	queries []query  // search workloads
	reads   []string // mixed workloads
	// strata groups the population's requests by query template or read
	// shape; the request stream visits them in turn.
	strata [][]request
	chk    *checker

	nextID    atomic.Int64
	mu        sync.Mutex
	attempted map[int64]bool
	acked     map[int64]bool
}

func newTraffic(sp spec) *traffic {
	t := &traffic{spec: sp, chk: newChecker(), attempted: map[int64]bool{}, acked: map[int64]bool{}}
	t.nextID.Store(insertBase - 1)
	return t
}

func (t *traffic) attempt(id int64) {
	t.mu.Lock()
	t.attempted[id] = true
	t.mu.Unlock()
}

func (t *traffic) ack(id int64) {
	t.mu.Lock()
	t.acked[id] = true
	t.mu.Unlock()
}

// setSearches installs the keyword query population, grouped by template.
func (t *traffic) setSearches(qs []query) {
	t.queries = qs
	group := map[string]int{}
	for i, q := range qs {
		g, ok := group[q.gold.Label]
		if !ok {
			g = len(t.strata)
			group[q.gold.Label] = g
			t.strata = append(t.strata, nil)
		}
		t.strata[g] = append(t.strata[g], request{kind: kindSearch, idx: i})
	}
}

// setReads installs the read population, one stratum per shape.
func (t *traffic) setReads(shapes [][]string) {
	for _, shape := range shapes {
		var stratum []request
		for _, stmt := range shape {
			stratum = append(stratum, request{kind: kindSQL, idx: len(t.reads)})
			t.reads = append(t.reads, stmt)
		}
		t.strata = append(t.strata, stratum)
	}
}

// pass takes the stream's next pass over the population from pick: every
// distinct request once, inserts left out, in the order the stream visits
// them. Warming a server with it means each later request was last sent a
// whole population earlier, beyond the engine's query cache, so the
// measured phases see no cache hits whatever the seed.
func (t *traffic) pass(pick func() request) []request {
	n := len(t.queries) + len(t.reads)
	out := make([]request, 0, n)
	for len(out) < n {
		if r := pick(); r.kind != kindInsert {
			out = append(out, r)
		}
	}
	return out
}

// picker returns the request stream: every writeEvery-th request an
// insert, the others walking each stratum in a seeded order and visiting
// the strata in proportion to their size (smooth weighted round robin).
// Every request of the population comes once before any comes again, so
// the stream has no locality for the engine's query cache, and every
// stretch of it has the population's mix of templates or shapes: a
// uniform draw would let the share of cheap single-table queries and of
// query-cache hits swing from run to run, and with it the median. It is
// not safe for concurrent use.
func (t *traffic) picker(rng *rand.Rand) func() request {
	orders := make([][]int, len(t.strata))
	next := make([]int, len(t.strata))
	credit := make([]int, len(t.strata))
	total := 0
	for i, s := range t.strata {
		orders[i] = rng.Perm(len(s))
		total += len(s)
	}
	k := 0
	return func() request {
		k++
		if t.spec.writeEvery > 0 && k%t.spec.writeEvery == 0 {
			return request{kind: kindInsert}
		}
		best := 0
		for i, s := range t.strata {
			credit[i] += len(s)
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		order := orders[best]
		r := t.strata[best][order[next[best]%len(order)]]
		next[best]++
		return r
	}
}

// successAt3 is the share of distinct queries whose gold table set is
// among the first three explanations, judged on the tables each
// returned statement reads.
func successAt3(qs []query, rankings map[string][]string) float64 {
	hits := 0
	for _, q := range qs {
		var sets [][]string
		for _, text := range rankings[q.text] {
			stmt, err := sql.Parse(text)
			if err != nil {
				continue
			}
			var tables []string
			for _, tr := range stmt.Tables() {
				tables = append(tables, tr.Table)
			}
			sets = append(sets, tables)
		}
		if j := eval.JudgeTables(q.gold, sets); j.TablesRank > 0 && j.TablesRank <= 3 {
			hits++
		}
	}
	return ratio(float64(hits), float64(len(qs)))
}

// referenceRankings computes every query's ranking with Engine.Search on
// an engine over the same shape's data layout with both caches off,
// using workers goroutines.
func referenceRankings(eng *core.Engine, qs []query, workers int) (map[string][]refExp, error) {
	out := make([][]refExp, len(qs))
	errs := make([]error, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				exps, err := eng.Search(qs[i].text)
				if err != nil {
					errs[i] = fmt.Errorf("reference search %q: %w", qs[i].text, err)
					continue
				}
				r := make([]refExp, len(exps))
				for j, ex := range exps {
					r[j] = refExp{SQL: ex.SQL, Belief: ex.Belief}
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	ref := make(map[string][]refExp, len(qs))
	for i, q := range qs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		ref[q.text] = out[i]
	}
	return ref, nil
}

// insertedKeys returns the sorted row keys of the rows in rows that
// inserts wrote, and whether any appears twice.
func insertedKeys(rows []relational.Row) ([]string, bool) {
	var keys []string
	seen := map[string]bool{}
	dup := false
	for _, r := range rows {
		if len(r) > 0 && r[0].Type() == relational.TypeInt && r[0].AsInt() >= insertBase {
			k := rowKey(r)
			dup = dup || seen[k]
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys, dup
}

// takeInsertKeys renders the acknowledged and the attempted inserts' rows
// as sorted row keys and forgets them, for the next deployment.
func (t *traffic) takeInsertKeys() (acked, attempted []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	render := func(ids map[int64]bool) []string {
		keys := make([]string, 0, len(ids))
		for id := range ids {
			keys = append(keys, rowKey(insertRow(id)))
		}
		sort.Strings(keys)
		return keys
	}
	acked, attempted = render(t.acked), render(t.attempted)
	t.acked, t.attempted = map[int64]bool{}, map[int64]bool{}
	return acked, attempted
}
