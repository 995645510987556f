package transport

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relational"
	"repro/internal/sql"
	"repro/internal/wrapper"
)

func testDB(t testing.TB) *relational.Database {
	t.Helper()
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "movie",
		Columns: []relational.Column{
			{Name: "movie_id", Type: relational.TypeInt, NotNull: true},
			{Name: "title", Type: relational.TypeString, NotNull: true},
			{Name: "year", Type: relational.TypeInt},
		},
		PrimaryKey: "movie_id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("transport", s)
	words := []string{"dark", "river", "storm", "night"}
	for i := 1; i <= 500; i++ {
		year := relational.Value(relational.Int(int64(1960 + i%60)))
		if i%11 == 0 {
			year = relational.Null()
		}
		if err := db.Insert("movie", relational.Row{
			relational.Int(int64(i)),
			relational.String_(fmt.Sprintf("%s %s %d", words[i%4], words[(i/4)%4], i)),
			year,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustParse(t testing.TB, q string) *sql.SelectStmt {
	t.Helper()
	stmt, err := sql.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

func sameResult(t *testing.T, got, want *sql.Result) {
	t.Helper()
	if len(got.Columns) != len(want.Columns) {
		t.Fatalf("columns %v vs %v", got.Columns, want.Columns)
	}
	for i := range want.Columns {
		if got.Columns[i] != want.Columns[i] {
			t.Fatalf("column %d: %q vs %q", i, got.Columns[i], want.Columns[i])
		}
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("row count %d vs %d", len(got.Rows), len(want.Rows))
	}
	for i := range want.Rows {
		for j := range want.Rows[i] {
			g, w := got.Rows[i][j], want.Rows[i][j]
			if g.Type() != w.Type() || g.Key() != w.Key() {
				t.Fatalf("row %d cell %d: %v (%v) vs %v (%v)", i, j, g, g.Type(), w, w.Type())
			}
		}
	}
}

// TestLoopbackRoundTrip drives every request type through the full wire
// path (frames, codec, server dispatch) against the reference source.
func TestLoopbackRoundTrip(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	c, err := NewLoopbackClient(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	for _, q := range []string{
		"SELECT * FROM movie WHERE movie_id = 17",
		"SELECT title FROM movie WHERE year > 1990 ORDER BY movie_id",
		"SELECT title, year FROM movie WHERE title MATCH 'dark' ORDER BY movie_id LIMIT 10",
		"SELECT COUNT(*), MIN(year), MAX(year) FROM movie",
		"SELECT title FROM movie WHERE movie_id = -4",
	} {
		stmt := mustParse(t, q)
		want, err := src.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: reference: %v", q, err)
		}
		got, err := c.Execute(stmt)
		if err != nil {
			t.Fatalf("%s: remote: %v", q, err)
		}
		sameResult(t, got, want)

		wex, _ := src.ExecuteExists(stmt)
		gex, err := c.ExecuteExists(stmt)
		if err != nil {
			t.Fatalf("%s: remote exists: %v", q, err)
		}
		if gex != wex {
			t.Errorf("%s: exists %v, want %v", q, gex, wex)
		}
	}

	// Error parity: a statement the reference rejects must come back as a
	// RemoteError — and must not burn retries (every replica would reject).
	if _, err := c.Execute(mustParse(t, "SELECT nosuch FROM movie")); err == nil {
		t.Error("bad statement accepted")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Errorf("bad statement returned %T (%v), want RemoteError", err, err)
		}
	}
	if st := c.Stats(); st.Retries != 0 {
		t.Errorf("query rejection consumed %d retries", st.Retries)
	}

	// Statistics round-trip: the snapshot must estimate like the original.
	want, err := src.ColumnStatistics("movie", "year")
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.ColumnStatistics("movie", "year")
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != want.Rows || got.Distinct != want.Distinct || got.NullCount != want.NullCount {
		t.Errorf("stats diverge: got %+v want %+v", got, want)
	}
	if _, err := c.ColumnStatistics("movie", "nosuch"); err == nil {
		t.Error("unknown column statistics accepted")
	}

	// Relevance faces relay the backend's evidence.
	if g, w := c.AttributeScore("movie", "title", "dark"), src.AttributeScore("movie", "title", "dark"); g != w {
		t.Errorf("AttributeScore %v, want %v", g, w)
	}
	e := relational.JoinEdge{FromTable: "movie", FromColumn: "movie_id", ToTable: "movie", ToColumn: "year"}
	gd, gerr := c.EdgeDistance(e)
	wd, werr := src.EdgeDistance(e)
	if (gerr != nil) != (werr != nil) || (gerr == nil && gd != wd) {
		t.Errorf("EdgeDistance %v/%v, want %v/%v", gd, gerr, wd, werr)
	}
}

// TestTCPRoundTrip runs the same protocol over real sockets.
func TestTCPRoundTrip(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(src).Serve(l)

	c, err := Dial([]string{l.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stmt := mustParse(t, "SELECT title FROM movie WHERE year BETWEEN 1970 AND 1980 ORDER BY movie_id")
	want, _ := src.Execute(stmt)
	got, err := c.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want)
}

// limitConn drops the connection after a byte budget has been read —
// models a peer dying mid-stream.
type limitConn struct {
	net.Conn
	mu        sync.Mutex
	remaining int
}

func (c *limitConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	rem := c.remaining
	c.mu.Unlock()
	if rem <= 0 {
		c.Conn.Close()
		return 0, errors.New("injected mid-stream drop")
	}
	if len(p) > rem {
		p = p[:rem]
	}
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.remaining -= n
	c.mu.Unlock()
	return n, err
}

// countingSink records rows and Reset calls.
type countingSink struct {
	rows   []relational.Row
	resets int
}

func (s *countingSink) Reset()                      { s.resets++; s.rows = s.rows[:0] }
func (s *countingSink) Push(r relational.Row) error { s.rows = append(s.rows, r); return nil }

// TestRetryAfterMidStreamDrop injects a connection that dies partway
// through the row stream on the first replica; the client must reset the
// sink and replay on the surviving replica, delivering the complete result
// exactly once.
func TestRetryAfterMidStreamDrop(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	srv := NewServer(src)
	srv.BatchRows = 16 // many frames per result so the drop lands mid-stream

	flaky := func() (net.Conn, error) {
		cl, sv := net.Pipe()
		go srv.ServeConn(sv)
		// Enough for the request, the header and a few row batches; dies
		// before the stream completes.
		return &limitConn{Conn: cl, remaining: 700}, nil
	}
	healthy := LoopbackDialer(srv)
	c, err := NewClient([]Dialer{flaky, healthy}, Options{RetryBackoff: time.Millisecond, PoolSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stmt := mustParse(t, "SELECT title, year FROM movie ORDER BY movie_id")
	want, _ := src.Execute(stmt)
	// Operations round-robin their starting replica; run a few so at least
	// one starts on the flaky replica regardless of internal counters.
	sawRetry := false
	for i := 0; i < 2; i++ {
		sink := &countingSink{}
		cols, err := c.ExecuteStream(stmt, sink)
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if len(cols) != 2 || len(sink.rows) != len(want.Rows) {
			t.Fatalf("op %d: got %d rows, want %d", i, len(sink.rows), len(want.Rows))
		}
		if sink.resets > 1 {
			sawRetry = true
			for j := range want.Rows {
				if sink.rows[j][0].Key() != want.Rows[j][0].Key() {
					t.Fatalf("op %d row %d diverges after retry", i, j)
				}
			}
		}
	}
	if !sawRetry {
		t.Fatal("no operation hit the flaky replica mid-stream")
	}
	if st := c.Stats(); st.Retries == 0 {
		t.Errorf("expected retries, stats: %+v", st)
	}
}

// delayBackend injects server-side latency.
type delayBackend struct {
	wrapper.SourceExecutor
	delay time.Duration
}

func (b *delayBackend) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	time.Sleep(b.delay)
	return b.SourceExecutor.Execute(stmt)
}

// TestHedgedReadWinsOverSlowReplica races a fast secondary against a slow
// primary: the call must return at hedge speed, count a hedge win, and
// the abandoned attempt must unwind without leaking a goroutine.
func TestHedgedReadWinsOverSlowReplica(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	baseline := runtime.NumGoroutine()
	slow := NewServer(&delayBackend{SourceExecutor: src, delay: 300 * time.Millisecond})
	fast := NewServer(src)
	c, err := NewClient(
		[]Dialer{LoopbackDialer(slow), LoopbackDialer(fast)},
		Options{Hedge: true, HedgeFixedDelay: 5 * time.Millisecond, MaxAttempts: 1},
	)
	if err != nil {
		t.Fatal(err)
	}

	stmt := mustParse(t, "SELECT title FROM movie WHERE movie_id = 42")
	start := time.Now()
	res, err := c.Execute(stmt) // starts on replica 0: the slow one
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 150*time.Millisecond {
		t.Errorf("hedged read took %v, slow-replica latency leaked through", took)
	}
	if len(res.Rows) != 1 {
		t.Errorf("got %d rows, want 1", len(res.Rows))
	}
	st := c.Stats()
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Errorf("hedge not exercised: %+v", st)
	}
	// After Close, the losing attempt's goroutine and the pooled loopback
	// connections' server goroutines must all drain back to the pre-client
	// baseline — the abandoned hedge unwinds when its connection closes or
	// its server-side delay ends.
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("%d goroutines leaked by abandoned hedge", g-baseline)
	}
}

// TestMalformedFrameTypedError pins the failure mode for protocol
// corruption: a typed error (errors.Is ErrMalformedFrame), delivered
// promptly — never a hang, never a panic.
func TestMalformedFrameTypedError(t *testing.T) {
	// A "server" that answers every request with a frame whose declared
	// length is absurd.
	garbage := func() (net.Conn, error) {
		cl, sv := net.Pipe()
		go func() {
			defer sv.Close()
			buf := make([]byte, 512)
			if _, err := sv.Read(buf); err != nil {
				return
			}
			sv.Write([]byte{0xff, 0xff, 0xff, 0xff, frameColumns})
		}()
		return cl, nil
	}
	c, err := NewClient([]Dialer{garbage}, Options{
		MaxAttempts: 2, RetryBackoff: time.Millisecond, RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.Execute(mustParse(t, "SELECT title FROM movie"))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("got %v, want ErrMalformedFrame", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("malformed frame hung the client")
	}

	// Corruption inside the row stream: valid header, then junk frame type.
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	midstream := func() (net.Conn, error) {
		cl, sv := net.Pipe()
		go func() {
			defer sv.Close()
			buf := make([]byte, 4096)
			if _, err := sv.Read(buf); err != nil {
				return
			}
			res, _ := src.Execute(mustParse(t, "SELECT title FROM movie LIMIT 3"))
			writeFrame(sv, frameColumns, sql.AppendColumns(nil, res.Columns))
			writeFrame(sv, 0x7e, []byte("junk"))
		}()
		return cl, nil
	}
	c2, err := NewClient([]Dialer{midstream}, Options{
		MaxAttempts: 2, RetryBackoff: time.Millisecond, RequestTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Execute(mustParse(t, "SELECT title FROM movie")); err == nil {
		t.Error("mid-stream junk frame accepted")
	} else {
		var pe *ProtocolError
		if !errors.As(err, &pe) {
			t.Errorf("mid-stream junk returned %T (%v), want ProtocolError", err, err)
		}
	}
}

// TestWideRowsByteBoundedBatches pins the server's batch cut: rows wide
// enough that a count-only batch would blow past the frame cap must still
// stream — the server flushes early on encoded size, so the result
// arrives no matter how small the negotiated cap is relative to the rows.
func TestWideRowsByteBoundedBatches(t *testing.T) {
	s := relational.NewSchema()
	if err := s.AddTable(&relational.TableSchema{
		Name: "blob",
		Columns: []relational.Column{
			{Name: "id", Type: relational.TypeInt, NotNull: true},
			{Name: "body", Type: relational.TypeString},
		},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	db := relational.MustNewDatabase("blob", s)
	wide := strings.Repeat("x", 1024)
	for i := 1; i <= 300; i++ {
		if err := db.Insert("blob", relational.Row{relational.Int(int64(i)), relational.String_(wide)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(wrapper.NewFullAccessSource(db))
	srv.MaxFrame = 8 << 10 // 256 wide rows per count-cut batch would be ~256KB
	c, err := NewClient([]Dialer{LoopbackDialer(srv)}, Options{MaxFrame: 8 << 10, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Execute(mustParse(t, "SELECT * FROM blob"))
	if err != nil {
		t.Fatalf("wide rows failed under small frame cap: %v", err)
	}
	if len(res.Rows) != 300 {
		t.Errorf("got %d rows, want 300", len(res.Rows))
	}
}

// TestConcurrentClientNoLeak hammers one client from many goroutines and
// checks the process returns to its goroutine baseline after Close — the
// transport's steady state is pooled connections, nothing else.
func TestConcurrentClientNoLeak(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	before := runtime.NumGoroutine()
	c, err := NewLoopbackClient(src, Options{PoolSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	queries := []*sql.SelectStmt{
		mustParse(t, "SELECT title FROM movie WHERE movie_id = 7"),
		mustParse(t, "SELECT title FROM movie WHERE year > 2000 ORDER BY movie_id"),
		mustParse(t, "SELECT COUNT(*) FROM movie"),
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				stmt := queries[(w+i)%len(queries)]
				if _, err := c.Execute(stmt); err != nil {
					t.Errorf("execute: %v", err)
					return
				}
				if _, err := c.ExecuteExists(stmt); err != nil {
					t.Errorf("exists: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > before {
		t.Errorf("%d goroutines leaked after close", g-before)
	}
	if _, err := c.Execute(queries[0]); !errors.Is(err, ErrClientClosed) {
		t.Errorf("closed client returned %v, want ErrClientClosed", err)
	}
}

// gateBackend parks every Execute until `need` of them are in flight at
// once — operations that reached the server hold their connections, so
// the rest of the client's concurrency can only proceed on fresh dials.
type gateBackend struct {
	wrapper.SourceExecutor
	arrivals atomic.Int32
	need     int32
	release  chan struct{}
	once     sync.Once
}

func (b *gateBackend) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	if b.arrivals.Add(1) >= b.need {
		b.once.Do(func() { close(b.release) })
	}
	<-b.release
	return b.SourceExecutor.Execute(stmt)
}

// TestRetryBackoffUnderPoolExhaustion covers the client's behavior when a
// replica's connections cannot be had: dials that fail are retried with
// exponential backoff until the attempt budget runs out, and a pool
// under more concurrency than it can hold keeps every operation moving on
// fresh dials instead of deadlocking on the idle channel.
func TestRetryBackoffUnderPoolExhaustion(t *testing.T) {
	db := testDB(t)
	gate := &gateBackend{
		SourceExecutor: wrapper.NewFullAccessSource(db),
		need:           4,
		release:        make(chan struct{}),
	}
	srv := NewServer(gate)

	// Phase 1: the endpoint refuses the first two dials. The operation must
	// survive on its third attempt, and the backoff sleeps (2ms, then 4ms)
	// put a floor under the elapsed time.
	var failsLeft atomic.Int32
	failsLeft.Store(2)
	gated := func() (net.Conn, error) {
		if failsLeft.Add(-1) >= 0 {
			return nil, errors.New("injected dial failure")
		}
		return LoopbackDialer(srv)()
	}
	c, err := NewClient([]Dialer{gated}, Options{
		MaxAttempts: 4, RetryBackoff: 2 * time.Millisecond, PoolSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping across dial failures: %v", err)
	}
	if took := time.Since(start); took < 6*time.Millisecond {
		t.Errorf("retries took %v, backoff (2ms+4ms) not applied", took)
	}
	st := c.Stats()
	if st.Retries != 2 {
		t.Errorf("Retries = %d, want 2", st.Retries)
	}

	// Phase 2: exhaust the pool. One idle slot, 16 concurrent operations,
	// and a server gate that parks executes until 4 are in flight at once
	// — operations beyond the pooled connection must dial fresh and
	// complete; none may block forever on a slot.
	stmt := mustParse(t, "SELECT title FROM movie WHERE movie_id = 7")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Execute(stmt); err != nil {
				errs <- err
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("operations deadlocked under pool exhaustion")
	}
	close(errs)
	for err := range errs {
		t.Errorf("concurrent execute: %v", err)
	}
	if got := c.Stats().Dials; got < 4 {
		t.Errorf("Dials = %d; exhausted pool should have forced fresh dials", got)
	}
	c.Close()
}

// TestHedgedReadRacesReplicaDyingMidFrame points the primary attempt at a
// replica that is both slow and doomed to die partway through its row
// stream. The hedge must win on the healthy replica with a complete
// result, and the dying loser's attempt must unwind without leaking a
// goroutine.
func TestHedgedReadRacesReplicaDyingMidFrame(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	baseline := runtime.NumGoroutine()

	dying := NewServer(&delayBackend{SourceExecutor: src, delay: 50 * time.Millisecond})
	dying.BatchRows = 16 // many frames, so the byte budget cuts mid-stream
	doomed := func() (net.Conn, error) {
		cl, sv := net.Pipe()
		go dying.ServeConn(sv)
		return &limitConn{Conn: cl, remaining: 700}, nil
	}
	healthy := NewServer(src)
	c, err := NewClient([]Dialer{doomed, LoopbackDialer(healthy)}, Options{
		Hedge: true, HedgeFixedDelay: 5 * time.Millisecond,
		MaxAttempts: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	stmt := mustParse(t, "SELECT title, year FROM movie ORDER BY movie_id")
	want, _ := src.Execute(stmt)
	res, err := c.Execute(stmt) // starts on replica 0: slow, dies mid-frame
	if err != nil {
		t.Fatalf("hedged execute: %v", err)
	}
	sameResult(t, res, want)
	st := c.Stats()
	if st.Hedges == 0 {
		t.Errorf("hedge never launched: %+v", st)
	}
	if st.HedgeWins == 0 {
		t.Errorf("healthy replica should have won the race: %+v", st)
	}
	c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > baseline {
		t.Errorf("%d goroutines leaked by the dying loser", g-baseline)
	}
}

// TestColumnarStreamWithConcurrentInserts is the mixed read/write
// regression for FullAccessSource behind a server: the columnar encoder
// looks up its encoding hints (ColumnStatistics) while ExecuteStream holds
// the source's read lock, so if that lookup took the read lock again, an
// Insert queued for the write lock in between would block both for good.
// Every stream must finish.
func TestColumnarStreamWithConcurrentInserts(t *testing.T) {
	db := testDB(t)
	src := wrapper.NewFullAccessSource(db)
	c, err := NewLoopbackClient(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Single-table and order-insensitive, so rows stream; 500+ rows, so
	// the first columnar frame is encoded while the stream still runs.
	stmt := mustParse(t, "SELECT title, year FROM movie")

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5000; i++ {
			select {
			case <-stop:
				return
			default:
			}
			row := relational.Row{relational.Int(int64(10000 + i)), relational.String_("inserted"), relational.Int(2001)}
			if err := src.Insert("movie", row); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		for q := 0; q < 60; q++ {
			res, err := c.Execute(stmt)
			if err != nil {
				done <- err
				return
			}
			if len(res.Rows) < 500 {
				done <- fmt.Errorf("stream %d returned %d rows, want at least 500", q, len(res.Rows))
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("columnar streams deadlocked against concurrent inserts")
	}
	close(stop)
	wg.Wait()
	if st := c.Stats(); st.ColumnarFrames == 0 {
		t.Errorf("no columnar frames shipped, so the hint lookup never ran: %+v", st)
	}
}
