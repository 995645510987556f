package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/relational"
	"repro/internal/sql"
)

// questd's default caps on the rows a response carries: a search's
// executed top explanation, and a /v1/sql answer.
const (
	searchRowLimit = 100
	sqlRowLimit    = 1000
)

// refExp is one explanation of a reference ranking.
type refExp struct {
	SQL    string
	Belief float64
}

// searchBody is the part of a /v1/search response the checks read. Rows
// stay raw so they compare byte for byte with the reference encoding.
type searchBody struct {
	Explanations []struct {
		Rank   int               `json:"rank"`
		Belief float64           `json:"belief"`
		SQL    string            `json:"sql"`
		Rows   []json.RawMessage `json:"rows"`
	} `json:"explanations"`
}

// sqlBody is the part of a /v1/sql response the checks read.
type sqlBody struct {
	Rows     []json.RawMessage `json:"rows"`
	RowCount int               `json:"row_count"`
}

// rowSet is one observed answer to a statement: its rows as sorted
// canonical keys, and whether the server cut the answer short.
type rowSet struct {
	keys      []string
	truncated bool
	rowCount  int // the answer's full size when the response states it, else -1
}

// checker holds the answers every response must match. Ranked
// explanations are compared as they arrive; rows are collected per
// statement (one copy per distinct answer) and compared with the
// reference interpreter after the timed phases, so the oracle's cost
// stays out of the measurement.
type checker struct {
	ref map[string][]refExp // keyword query → reference ranking

	mu       sync.Mutex
	observed map[string]map[uint64]rowSet // statement → digest → answer
	failures []string
	nFail    int
}

func newChecker() *checker {
	return &checker{ref: map[string][]refExp{}, observed: map[string]map[uint64]rowSet{}}
}

func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nFail++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// ok reports whether every check so far passed.
func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nFail == 0
}

// checkSearchBody checks one /v1/search response.
func (c *checker) checkSearchBody(query string, body []byte) {
	var resp searchBody
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("search %q: bad response body: %v", query, err)
		return
	}
	got := make([]refExp, len(resp.Explanations))
	for i, ex := range resp.Explanations {
		if ex.Rank != i+1 {
			c.fail("search %q: explanation %d carries rank %d", query, i, ex.Rank)
			return
		}
		got[i] = refExp{SQL: ex.SQL, Belief: ex.Belief}
	}
	if !c.matchRanking(query, got) || len(resp.Explanations) == 0 {
		return
	}
	rows := resp.Explanations[0].Rows
	keys := make([]string, len(rows))
	for i, r := range rows {
		keys[i] = string(r)
	}
	c.observe(resp.Explanations[0].SQL, keys, len(rows) == searchRowLimit, -1)
}

// checkSearchResult checks a ranking and top-1 result obtained by calling
// the engine directly.
func (c *checker) checkSearchResult(query string, exps []*core.Explanation, top *sql.Result) {
	got := make([]refExp, len(exps))
	for i, ex := range exps {
		got[i] = refExp{SQL: ex.SQL, Belief: ex.Belief}
	}
	if c.matchRanking(query, got) && len(exps) > 0 && top != nil {
		c.observe(exps[0].SQL, rowKeys(top.Rows), false, len(top.Rows))
	}
}

func (c *checker) matchRanking(query string, got []refExp) bool {
	want, ok := c.ref[query]
	if !ok {
		c.fail("search %q: no reference ranking", query)
		return false
	}
	if len(got) != len(want) {
		c.fail("search %q: %d explanations, reference has %d", query, len(got), len(want))
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			c.fail("search %q: rank %d is (%s, belief %v), reference (%s, belief %v)",
				query, i+1, got[i].SQL, got[i].Belief, want[i].SQL, want[i].Belief)
			return false
		}
	}
	return true
}

// checkSQLBody checks the shape of one /v1/sql response and files its
// rows for the reference comparison.
func (c *checker) checkSQLBody(stmt string, body []byte) {
	var resp sqlBody
	if err := json.Unmarshal(body, &resp); err != nil {
		c.fail("sql %q: bad response body: %v", stmt, err)
		return
	}
	keys := make([]string, len(resp.Rows))
	for i, r := range resp.Rows {
		keys[i] = string(r)
	}
	c.observe(stmt, keys, len(keys) == sqlRowLimit && resp.RowCount > len(keys), resp.RowCount)
}

func (c *checker) observe(stmt string, keys []string, truncated bool, rowCount int) {
	keys = append([]string(nil), keys...)
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\n'})
	}
	d := h.Sum64()
	c.mu.Lock()
	defer c.mu.Unlock()
	m := c.observed[stmt]
	if m == nil {
		m = map[uint64]rowSet{}
		c.observed[stmt] = m
	}
	if _, seen := m[d]; !seen {
		m[d] = rowSet{keys: keys, truncated: truncated, rowCount: rowCount}
	}
}

// verifyRows compares every observed answer with the reference
// interpreter (sql.ExecuteFullScan) over the unpartitioned mirror, using
// the given number of goroutines.
func (c *checker) verifyRows(mirror *relational.Database, workers int) {
	c.mu.Lock()
	stmts := make([]string, 0, len(c.observed))
	for s := range c.observed {
		stmts = append(stmts, s)
	}
	c.mu.Unlock()
	sort.Strings(stmts)
	var wg sync.WaitGroup
	var next int
	var nextMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				nextMu.Lock()
				i := next
				next++
				nextMu.Unlock()
				if i >= len(stmts) {
					return
				}
				c.verifyStmt(mirror, stmts[i])
			}
		}()
	}
	wg.Wait()
}

func (c *checker) verifyStmt(mirror *relational.Database, text string) {
	stmt, err := sql.Parse(text)
	if err != nil {
		c.fail("reference: parsing %q: %v", text, err)
		return
	}
	res, err := sql.ExecuteFullScan(mirror, stmt)
	if err != nil {
		c.fail("reference: executing %q: %v", text, err)
		return
	}
	want := rowKeys(res.Rows)
	sort.Strings(want)
	c.mu.Lock()
	sets := c.observed[text]
	c.mu.Unlock()
	for _, got := range sets {
		if err := compareRows(got, want); err != nil {
			c.fail("rows of %q: %v", text, err)
		}
	}
}

// compareRows holds one observed answer to the reference answer: equal as
// multisets, or — when the server cut the answer short — a sub-multiset
// whose stated size, if any, matches.
func compareRows(got rowSet, want []string) error {
	if got.rowCount >= 0 && got.rowCount != len(want) {
		return fmt.Errorf("%d rows stated, reference has %d", got.rowCount, len(want))
	}
	if got.truncated && len(got.keys) > len(want) || !got.truncated && len(got.keys) != len(want) {
		return fmt.Errorf("%d rows returned, reference has %d", len(got.keys), len(want))
	}
	i := 0
	for _, k := range got.keys {
		for i < len(want) && want[i] < k {
			i++
		}
		if i == len(want) || want[i] != k {
			return fmt.Errorf("row %s is not in the reference answer", k)
		}
		i++
	}
	return nil
}

// report returns the first failures, for the run's log.
func (c *checker) report() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nFail == 0 {
		return ""
	}
	return fmt.Sprintf("%d check failures; first: %s", c.nFail, strings.Join(c.failures, "; "))
}

// rowKeys renders rows the way questd writes them in JSON, so engine
// rows and response rows compare as strings.
func rowKeys(rows []relational.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = rowKey(r)
	}
	return out
}

func rowKey(r relational.Row) string {
	vals := make([]any, len(r))
	for j, v := range r {
		switch v.Type() {
		case relational.TypeNull:
			vals[j] = nil
		case relational.TypeInt:
			vals[j] = v.AsInt()
		case relational.TypeFloat:
			vals[j] = v.AsFloat()
		case relational.TypeBool:
			vals[j] = v.AsBool()
		default:
			vals[j] = v.AsString()
		}
	}
	b, err := json.Marshal(vals)
	if err != nil {
		panic(fmt.Sprintf("encoding row %v: %v", r, err)) // only non-finite floats fail, and rows hold none
	}
	return string(b)
}

// digestSearch summarizes a direct search's answer for the
// traced-versus-untraced comparison.
func digestSearch(exps []*core.Explanation, top *sql.Result) string {
	var b strings.Builder
	for _, ex := range exps {
		fmt.Fprintf(&b, "%v %s\n", ex.Belief, ex.SQL)
	}
	if top != nil {
		keys := rowKeys(top.Rows)
		sort.Strings(keys)
		b.WriteString(strings.Join(keys, "\n"))
	}
	return b.String()
}

// digestRows summarizes a direct SQL answer.
func digestRows(res *sql.Result) string {
	keys := rowKeys(res.Rows)
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}
