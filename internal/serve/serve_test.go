package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	quest "repro"
	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

// gateSource wraps the full-access source so tests can hold every
// PruneEmpty existence probe at a gate: a search admitted by the server
// then blocks inside the engine until the test releases it (or its
// context fires), which is how the overload, deadline and coalescing
// paths are made deterministic.
type gateSource struct {
	*wrapper.FullAccessSource
	mu      sync.Mutex
	block   chan struct{} // non-nil: probes wait here
	entered chan struct{} // one signal per probe that reached the gate
}

func (g *gateSource) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	g.mu.Lock()
	block := g.block
	g.mu.Unlock()
	if block != nil {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		select {
		case <-block:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
	return g.FullAccessSource.ExecuteExists(stmt)
}

func (g *gateSource) close() {
	g.mu.Lock()
	if g.block != nil {
		close(g.block)
		g.block = nil
	}
	g.mu.Unlock()
}

// newGateServer builds a serve.Server whose engine validates candidates
// through the gate. The query cache is off so every request exercises the
// full admission + execution path.
func newGateServer(t *testing.T, blocked bool, o serve.Options) (*serve.Server, *gateSource) {
	t.Helper()
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: 42, Scale: 1})
	g := &gateSource{
		FullAccessSource: wrapper.NewFullAccessSource(db),
		entered:          make(chan struct{}, 64),
	}
	if blocked {
		g.block = make(chan struct{})
	}
	opts := quest.Defaults()
	opts.PruneEmpty = true
	opts.QueryCacheSize = -1
	eng := core.NewEngine(g, opts)
	return serve.New(eng, o), g
}

const testQuery = "spielberg drama"

func doSearch(s *serve.Server, q string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, "/v1/search?q="+strings.ReplaceAll(q, " ", "+"), nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func errorCode(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatalf("response %q is not a typed error body: %v", w.Body.String(), err)
	}
	return body.Error
}

func TestSearchSQLStatsHealthz(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{})

	req := httptest.NewRequest(http.MethodGet, "/v1/search?q=spielberg+drama&execute=1&k=3", nil)
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("search: code %d body %s", w.Code, w.Body.String())
	}
	var res struct {
		Keywords     []string `json:"keywords"`
		Explanations []struct {
			Rank   int     `json:"rank"`
			Belief float64 `json:"belief"`
			SQL    string  `json:"sql"`
			Rows   [][]any `json:"rows"`
		} `json:"explanations"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatalf("decode search: %v", err)
	}
	if len(res.Keywords) != 2 || len(res.Explanations) == 0 {
		t.Fatalf("unexpected payload: %+v", res)
	}
	if len(res.Explanations) > 3 {
		t.Fatalf("k=3 returned %d explanations", len(res.Explanations))
	}
	if res.Explanations[0].SQL == "" {
		t.Fatal("top explanation has no SQL")
	}

	body := strings.NewReader(`{"sql": "SELECT title FROM movie WHERE production_year BETWEEN 1972 AND 1990"}`)
	sreq := httptest.NewRequest(http.MethodPost, "/v1/sql", body)
	sreq.Header.Set("Content-Type", "application/json")
	sw := httptest.NewRecorder()
	s.ServeHTTP(sw, sreq)
	if sw.Code != http.StatusOK {
		t.Fatalf("sql: code %d body %s", sw.Code, sw.Body.String())
	}
	var sqlRes struct {
		Columns  []string `json:"columns"`
		RowCount int      `json:"row_count"`
	}
	if err := json.Unmarshal(sw.Body.Bytes(), &sqlRes); err != nil {
		t.Fatalf("decode sql: %v", err)
	}
	if len(sqlRes.Columns) != 1 || sqlRes.RowCount == 0 {
		t.Fatalf("unexpected sql payload: %+v", sqlRes)
	}

	hw := httptest.NewRecorder()
	s.ServeHTTP(hw, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if hw.Code != http.StatusOK || !strings.Contains(hw.Body.String(), "ok") {
		t.Fatalf("healthz: code %d body %q", hw.Code, hw.Body.String())
	}

	stw := httptest.NewRecorder()
	s.ServeHTTP(stw, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var st serve.Stats
	if err := json.Unmarshal(stw.Body.Bytes(), &st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if st.Searches != 1 || st.SQLQueries != 1 || st.RowsReturned == 0 {
		t.Fatalf("stats don't reflect the traffic: %+v", st)
	}
}

func TestTypedBadRequests(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{})
	cases := []struct {
		name string
		req  *http.Request
	}{
		{"missing q", httptest.NewRequest(http.MethodGet, "/v1/search", nil)},
		{"bad k", httptest.NewRequest(http.MethodGet, "/v1/search?q=x&k=zebra", nil)},
		{"bad deadline header", func() *http.Request {
			r := httptest.NewRequest(http.MethodGet, "/v1/search?q=spielberg", nil)
			r.Header.Set(serve.DeadlineHeader, "soon")
			return r
		}()},
		{"sql wrong method", httptest.NewRequest(http.MethodGet, "/v1/sql?sql=SELECT", nil)},
		{"sql missing statement", httptest.NewRequest(http.MethodPost, "/v1/sql", nil)},
		{"sql parse error", httptest.NewRequest(http.MethodPost, "/v1/sql",
			strings.NewReader("sql=FROBNICATE+ALL+THE+THINGS"))},
	}
	cases[5].req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			s.ServeHTTP(w, tc.req)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("code %d body %s, want 400", w.Code, w.Body.String())
			}
			if code := errorCode(t, w); code != "bad_request" {
				t.Fatalf("error code %q, want bad_request", code)
			}
		})
	}
	if st := s.Stats(); st.BadRequests != uint64(len(cases)) {
		t.Fatalf("BadRequests = %d, want %d", st.BadRequests, len(cases))
	}
}

// bodyLimit mirrors the server's 1 MiB request-body bound.
const bodyLimit = 1 << 20

// padBody returns head + spaces + tail, exactly size bytes long: JSON
// (and form values, after TrimSpace) ignore the padding.
func padBody(head, tail string, size int) string {
	return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
}

// TestBodySizeLimit: /v1/sql (JSON and form) and /v1/insert answer a body
// one byte past the limit with a typed 413, and still serve a body at the
// limit and a normal one.
func TestBodySizeLimit(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{TenantRate: -1})
	post := func(path, contentType, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, req)
		return w
	}
	const (
		jsonCT = "application/json"
		formCT = "application/x-www-form-urlencoded"
	)
	sqlJSON := func(size int) string { return padBody(`{"sql": "SELECT title FROM movie`, `"}`, size) }
	sqlForm := func(size int) string { return padBody("sql=SELECT+title+FROM+movie", "", size) }
	insert := func(id, size int) string {
		return padBody(fmt.Sprintf(`{"table": "movie", "rows": [[%d, "Big Body", 2025, "drama", 5.0]]`, id), "}", size)
	}
	cases := []struct {
		name, path, ct string
		body           func(size int) string
	}{
		{"sql json", "/v1/sql", jsonCT, sqlJSON},
		{"sql form", "/v1/sql", formCT, sqlForm},
		{"insert", "/v1/insert", jsonCT, func(size int) string { return insert(9100, size) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(tc.path, tc.ct, tc.body(bodyLimit+1))
			if w.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("limit+1 bytes: code %d body %s, want 413", w.Code, w.Body.String())
			}
			if code := errorCode(t, w); code != "payload_too_large" {
				t.Fatalf("limit+1 bytes: error code %q, want payload_too_large", code)
			}
			if w := post(tc.path, tc.ct, tc.body(bodyLimit)); w.Code != http.StatusOK {
				t.Fatalf("limit bytes: code %d body %s, want 200", w.Code, w.Body.String())
			}
		})
	}
	if w := post("/v1/sql", jsonCT, `{"sql": "SELECT title FROM movie WHERE movie_id = 1"}`); w.Code != http.StatusOK {
		t.Fatalf("normal sql body: code %d body %s", w.Code, w.Body.String())
	}
	if w := post("/v1/insert", jsonCT, insert(9200, 80)); w.Code != http.StatusOK {
		t.Fatalf("normal insert body: code %d body %s", w.Code, w.Body.String())
	}
}

func TestRateLimitTyped(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{TenantRate: 0.5, TenantBurst: 1})

	if w := doSearch(s, testQuery, map[string]string{serve.TenantHeader: "miner"}); w.Code != http.StatusOK {
		t.Fatalf("first request: code %d body %s", w.Code, w.Body.String())
	}
	w := doSearch(s, testQuery, map[string]string{serve.TenantHeader: "miner"})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request: code %d, want 429", w.Code)
	}
	if code := errorCode(t, w); code != "rate_limited" {
		t.Fatalf("error code %q, want rate_limited", code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive estimate", ra)
	}
	// One tenant's empty bucket must not starve another's.
	if w := doSearch(s, testQuery, map[string]string{serve.TenantHeader: "analyst"}); w.Code != http.StatusOK {
		t.Fatalf("other tenant: code %d body %s", w.Code, w.Body.String())
	}
	if st := s.Stats(); st.RateLimited != 1 {
		t.Fatalf("RateLimited = %d, want 1", st.RateLimited)
	}
}

func TestOverloadShedsTyped(t *testing.T) {
	// One execution slot plus one admitted waiter: the third concurrent
	// request is past MaxConcurrent+MaxQueue and must shed.
	s, g := newGateServer(t, true, serve.Options{MaxConcurrent: 1, MaxQueue: 1, TenantRate: -1, DisableCoalesce: true})

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- doSearch(s, testQuery, nil) }()
	<-g.entered // the first search is inside the engine, holding the slot

	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- doSearch(s, "spielberg thriller", nil) }()
	waitFor(t, func() bool { return s.Stats().Requests >= 2 })
	// Give the second request time to enter the slot queue.
	time.Sleep(50 * time.Millisecond)

	w := doSearch(s, "lucas action", nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("third request: code %d body %s, want 503", w.Code, w.Body.String())
	}
	if code := errorCode(t, w); code != "overloaded" {
		t.Fatalf("error code %q, want overloaded", code)
	}
	if ra := w.Header().Get("Retry-After"); ra == "" {
		t.Fatal("503 without Retry-After")
	}

	g.close()
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("gated request after release: code %d body %s", w.Code, w.Body.String())
	}
	if w := <-second; w.Code != http.StatusOK {
		t.Fatalf("queued request after release: code %d body %s", w.Code, w.Body.String())
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
}

func TestDeadlineTyped(t *testing.T) {
	s, g := newGateServer(t, true, serve.Options{TenantRate: -1})
	defer g.close()

	start := time.Now()
	w := doSearch(s, testQuery, map[string]string{serve.DeadlineHeader: "50"})
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline response took %v, want prompt", elapsed)
	}
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d body %s, want 504", w.Code, w.Body.String())
	}
	if code := errorCode(t, w); code != "deadline_exceeded" {
		t.Fatalf("error code %q, want deadline_exceeded", code)
	}
	if st := s.Stats(); st.DeadlineExceeded != 1 {
		t.Fatalf("DeadlineExceeded = %d, want 1", st.DeadlineExceeded)
	}
}

func TestCoalescing(t *testing.T) {
	const n = 5
	s, g := newGateServer(t, true, serve.Options{TenantRate: -1, MaxConcurrent: 2})

	results := make(chan *httptest.ResponseRecorder, n)
	for i := 0; i < n; i++ {
		go func() { results <- doSearch(s, testQuery, nil) }()
	}
	<-g.entered // a leader holds the gate inside the engine
	// Wait until all n handlers have at least entered the request path,
	// then a beat more so the followers reach the singleflight table.
	waitFor(t, func() bool { return s.Stats().Requests >= n })
	time.Sleep(100 * time.Millisecond)
	g.close()

	coalesced := 0
	for i := 0; i < n; i++ {
		w := <-results
		if w.Code != http.StatusOK {
			t.Fatalf("request %d: code %d body %s", i, w.Code, w.Body.String())
		}
		var res struct {
			Coalesced bool `json:"coalesced"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if res.Coalesced {
			coalesced++
		}
	}
	st := s.Stats()
	if st.Searches+st.Coalesced != n {
		t.Fatalf("Searches %d + Coalesced %d != %d requests", st.Searches, st.Coalesced, n)
	}
	if st.Searches != 1 || st.Coalesced != n-1 {
		t.Fatalf("Searches = %d, Coalesced = %d; want 1 engine run serving %d followers", st.Searches, st.Coalesced, n-1)
	}
	if uint64(coalesced) != st.Coalesced {
		t.Fatalf("%d responses marked coalesced, stats say %d", coalesced, st.Coalesced)
	}
}

// TestServeSmoke is the `make serve-smoke` entry point: boot the server
// on a real listener, fire a short open-loop burst from a tenant whose
// bucket cannot sustain it, and check the shed traffic is typed while an
// interactive tenant rides through untouched.
func TestServeSmoke(t *testing.T) {
	s, _ := newGateServer(t, false, serve.Options{
		TenantRate:  2,
		TenantBurst: 3,
		MaxQueue:    8,
	})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(l)
	defer hs.Close()
	base := "http://" + l.Addr().String()

	get := func(tenant, q string) (*http.Response, error) {
		req, err := http.NewRequest(http.MethodGet, base+"/v1/search?q="+strings.ReplaceAll(q, " ", "+"), nil)
		if err != nil {
			return nil, err
		}
		req.Header.Set(serve.TenantHeader, tenant)
		return http.DefaultClient.Do(req)
	}

	// Open-loop burst: 12 requests at ~100/s from a bucket refilling at 2/s
	// with burst 3 — most of it must come back as typed 429s.
	const burst = 12
	var wg sync.WaitGroup
	codes := make(chan int, burst)
	bodies := make(chan string, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := get("bulk", testQuery)
			if err != nil {
				t.Errorf("burst request: %v", err)
				return
			}
			defer resp.Body.Close()
			var body struct {
				Error string `json:"error"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&body)
			codes <- resp.StatusCode
			bodies <- body.Error
		}()
		time.Sleep(10 * time.Millisecond)
	}
	wg.Wait()
	close(codes)
	close(bodies)

	var ok200, limited int
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			limited++
		default:
			t.Fatalf("unexpected status %d in burst", code)
		}
	}
	for e := range bodies {
		if e != "" && e != "rate_limited" {
			t.Fatalf("unexpected error code %q in burst", e)
		}
	}
	if limited == 0 {
		t.Fatal("burst of 12 at 100/s against a 2/s bucket saw zero 429s")
	}
	if ok200 == 0 {
		t.Fatal("burst admitted nothing; the bucket's burst capacity should pass a few")
	}

	// The interactive tenant is unaffected by the bulk tenant's debt.
	resp, err := get("interactive", testQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive tenant: code %d", resp.StatusCode)
	}

	st := s.Stats()
	if int(st.RateLimited) != limited {
		t.Fatalf("RateLimited = %d, burst observed %d", st.RateLimited, limited)
	}
	if st.Requests != burst+1 {
		t.Fatalf("Requests = %d, want %d", st.Requests, burst+1)
	}
}

// TestClientDisconnectCancels pins the serving tier's half of deadline
// propagation: a client that goes away mid-search cancels the engine call
// and is accounted as a 499, not an error.
func TestClientDisconnectCancels(t *testing.T) {
	s, g := newGateServer(t, true, serve.Options{TenantRate: -1})
	defer g.close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(l)
	defer hs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("http://%s/v1/search?q=spielberg+drama", l.Addr()), nil)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := http.DefaultClient.Do(req)
		errCh <- err
	}()
	<-g.entered // the search is blocked inside the engine
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("canceled request returned a response")
	}
	waitFor(t, func() bool { return s.Stats().ClientCanceled == 1 })
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
