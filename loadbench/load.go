package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// senders is how many requests the load generator has in flight at once:
// one per CPU, so the generator never outnumbers the cores it shares with
// the server.
var senders = runtime.NumCPU()

type reqKind uint8

const (
	kindSearch reqKind = iota
	kindSQL
	kindInsert
)

func (k reqKind) String() string {
	return [...]string{"search", "sql", "insert"}[k]
}

// request is one request of a workload's stream: a keyword query or a
// read statement by its index in the population, or an insert.
type request struct {
	kind reqKind
	idx  int
}

// sample is one request's outcome.
type sample struct {
	kind reqKind
	lat  time.Duration // response complete minus due, less lag (open loop) or minus sent (closed loop)
	// Open loop only: wait is how long the request was due before a
	// sender was free (queueing in the client, part of lat); lag is how
	// late the generator itself sent it after that.
	wait, lag time.Duration
	ok        bool
}

// client sends requests to questd's front door and hands each answer to
// the checks.
type client struct {
	http *http.Client
	base string
	w    *traffic
}

func newClient(base string, w *traffic) *client {
	return &client{
		http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     senders,
				MaxIdleConnsPerHost: senders,
				DisableCompression:  true,
			},
		},
		base: base,
		w:    w,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// do sends one request. done is when its response had been read in full;
// ok reports a 200 answer, which then goes to the checks. A refused or
// failed request is not ok.
func (c *client) do(r request) (done time.Time, ok bool) {
	var (
		req  *http.Request
		err  error
		id   int64
		stmt string
	)
	switch r.kind {
	case kindSearch:
		q := c.w.queries[r.idx].text
		req, err = http.NewRequest(http.MethodGet, c.base+"/v1/search?execute=1&q="+url.QueryEscape(q), nil)
	case kindSQL:
		stmt = c.w.reads[r.idx]
		body, _ := json.Marshal(map[string]string{"sql": stmt}) // a string map always encodes
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/sql", bytes.NewReader(body))
	case kindInsert:
		id = c.w.nextID.Add(1)
		c.w.attempt(id)
		body, _ := json.Marshal(map[string]any{"table": "movie", "rows": [][]any{insertValues(id)}})
		req, err = http.NewRequest(http.MethodPost, c.base+"/v1/insert", bytes.NewReader(body))
	}
	if err != nil {
		panic(err) // the URL and body are built here; a failure is a bug
	}
	if r.kind != kindSearch {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return time.Now(), false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done = time.Now()
	if err != nil || resp.StatusCode != http.StatusOK {
		return done, false
	}
	switch r.kind {
	case kindSearch:
		c.w.chk.checkSearchBody(c.w.queries[r.idx].text, body)
	case kindSQL:
		c.w.chk.checkSQLBody(stmt, body)
	case kindInsert:
		c.w.ack(id)
	}
	return done, true
}

// openLoop sends a Poisson stream at rate requests/s for dur, drawing
// requests from pick, with at most senders requests in flight. Latency
// counts from each request's scheduled time, so a request that waits for
// a free sender behind a slow one counts the wait; only the generator's
// own lateness in sending once a sender is free (timer slack, reported
// as lag) is left out.
func (c *client) openLoop(rng *rand.Rand, rate float64, dur time.Duration, pick func() request) []sample {
	var due []time.Duration
	var reqs []request
	for t := time.Duration(0); ; {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			break
		}
		due = append(due, t)
		reqs = append(reqs, pick())
	}
	out := make([]sample, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				at := start.Add(due[i])
				free := time.Now()
				if d := at.Sub(free); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				done, ok := c.do(reqs[i])
				wait := max(free.Sub(at), 0)
				out[i] = sample{kind: reqs[i].kind, lat: done.Sub(sent) + wait, wait: wait, lag: sent.Sub(maxTime(at, free)), ok: ok}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps senders requests in flight for dur, each sender
// sending its next request when the previous one completes. It returns
// the samples and the wall time the phase took.
func (c *client) closedLoop(dur time.Duration, pick func() request) ([]sample, time.Duration) {
	var mu sync.Mutex
	var out []sample
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(dur)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []sample
			for time.Now().Before(stop) {
				mu.Lock()
				r := pick()
				mu.Unlock()
				sent := time.Now()
				done, ok := c.do(r)
				mine = append(mine, sample{kind: r.kind, lat: done.Sub(sent), ok: ok})
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// sequential sends the requests one at a time and returns the wall time.
func (c *client) sequential(reqs []request) ([]sample, time.Duration) {
	out := make([]sample, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		sent := time.Now()
		done, ok := c.do(r)
		out[i] = sample{kind: r.kind, lat: done.Sub(sent), ok: ok}
	}
	return out, time.Since(start)
}

// latencies returns the latencies of the samples kept by keep, failed
// requests included.
func latencies(ss []sample, keep func(reqKind) bool) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if keep(s.kind) {
			out = append(out, s.lat)
		}
	}
	return out
}

func anyKind(reqKind) bool { return true }

func only(k reqKind) func(reqKind) bool { return func(x reqKind) bool { return x == k } }

func failures(ss []sample) int {
	n := 0
	for _, s := range ss {
		if !s.ok {
			n++
		}
	}
	return n
}

// underLimit counts the successful samples no slower than limit.
func underLimit(ss []sample, limit time.Duration) int {
	n := 0
	for _, s := range ss {
		if s.ok && s.lat <= limit {
			n++
		}
	}
	return n
}

func lags(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.lag
	}
	return out
}

func waits(ss []sample) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = s.wait
	}
	return out
}

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// insertValues is the row inserted under id. Its production year lies
// past every year the dataset generates and every read shape asks for,
// so reads have one right answer however many inserts have landed; the
// rating is never a whole number, so it stays a float through JSON.
func insertValues(id int64) []any {
	return []any{
		id,
		fmt.Sprintf("benchmark movie %d", id),
		insertYearMin + id%50,
		insertGenres[id%int64(len(insertGenres))],
		float64(20+id%80)/10 + 0.05,
	}
}

var insertGenres = []string{"drama", "comedy", "thriller", "noir"}

// insertYearMin is the first production year of inserted rows.
const insertYearMin = 2050
