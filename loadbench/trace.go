package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

// Span levels, outermost first. A span's parent sits at a lower level.
const (
	levelRoot   = iota // one traced request, recorded by the benchmark
	levelStage         // an engine call: Configurations, Interpretations, Explain, ExecuteCtx, RunSQL, Insert
	levelSource        // the engine's source: the executor itself (single) or the shard coordinator (remote)
	levelClient        // one shard backend as the coordinator sees it: a transport client
	levelServer        // the backend a shard server executes on
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent links a span to the call that caused it.
type span struct {
	id, parent uint64
	req        int64
	level      int
	layer      string // the bucket its self time is charged to
	shard      int    // -1 above the shard tier
	sql        string // statement text of backend calls, to pair server spans with client spans
	exists     bool   // an existence probe
	found      bool   // the probe's answer
	start, end time.Duration
}

// tracer collects spans in memory while on. Off, every decorator call
// costs one atomic load.
type tracer struct {
	on   atomic.Bool
	base time.Time
	ids  atomic.Uint64
	req  atomic.Int64 // the request the benchmark is currently running

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// spanRef is what a context carries to the calls below a span.
type spanRef struct {
	id  uint64
	req int64
}

type spanKey struct{}

// begin opens a span, or returns nil when tracing is off. With a
// non-nil ctx the caller's span becomes the parent (and its request the
// span's, even for a call that starts after the benchmark moved on) and the
// returned context carries the new span to the calls below.
func (t *tracer) begin(ctx context.Context, level int, layer string, shardIdx int, stmt *sql.SelectStmt) (*span, context.Context) {
	if t == nil || !t.on.Load() {
		return nil, ctx
	}
	sp := &span{id: t.ids.Add(1), req: t.req.Load(), level: level, layer: layer, shard: shardIdx}
	if ctx != nil {
		if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
			sp.parent, sp.req = p.id, p.req
		}
		ctx = context.WithValue(ctx, spanKey{}, spanRef{id: sp.id, req: sp.req})
	}
	if stmt != nil {
		sp.sql = stmt.SQL()
	}
	sp.start = time.Since(t.base)
	return sp, ctx
}

func (t *tracer) end(sp *span) {
	if sp == nil {
		return
	}
	sp.end = time.Since(t.base)
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// ---- face-preserving decorators ----
//
// Engine and coordinator dispatch on optional interfaces (the executor,
// context, streaming, statistics, version, write and relevance faces), so a
// decorator that drops or adds one silently changes which path runs. Each
// decorator below therefore wraps exactly one concrete type and implements
// exactly that type's faces; decorators_test.go holds them to it.

// scorer mirrors the shard tier's unexported relevance face.
type scorer interface {
	AttributeScore(table, column, keyword string) float64
	EdgeDistance(e relational.JoinEdge) (float64, error)
}

// tracedFull wraps a *wrapper.FullAccessSource: the single-process
// engine's source (levelSource) or a shard server's backend
// (levelServer). Execution is charged to sql, inserts to relational and
// relevance and statistics lookups to wrapper.
type tracedFull struct {
	in    *wrapper.FullAccessSource
	tr    *tracer
	level int
	shard int
}

func (s *tracedFull) exec(stmt *sql.SelectStmt) *span {
	sp, _ := s.tr.begin(nil, s.level, "sql", s.shard, stmt)
	return sp
}

func (s *tracedFull) other(layer string) *span {
	sp, _ := s.tr.begin(nil, s.level, layer, s.shard, nil)
	return sp
}

func (s *tracedFull) Name() string               { return s.in.Name() }
func (s *tracedFull) Schema() *relational.Schema { return s.in.Schema() }
func (s *tracedFull) HasInstanceAccess() bool    { return s.in.HasInstanceAccess() }
func (s *tracedFull) ExecutesConcurrently() bool { return s.in.ExecutesConcurrently() }

func (s *tracedFull) TableVersion(table string) (uint64, bool) { return s.in.TableVersion(table) }

func (s *tracedFull) AttributeScore(table, column, keyword string) float64 {
	sp := s.other("wrapper")
	defer s.tr.end(sp)
	return s.in.AttributeScore(table, column, keyword)
}

func (s *tracedFull) EdgeDistance(e relational.JoinEdge) (float64, error) {
	sp := s.other("wrapper")
	defer s.tr.end(sp)
	return s.in.EdgeDistance(e)
}

func (s *tracedFull) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	sp := s.other("wrapper")
	defer s.tr.end(sp)
	return s.in.ColumnStatistics(table, column)
}

func (s *tracedFull) Insert(table string, row relational.Row) error {
	sp := s.other("relational")
	defer s.tr.end(sp)
	return s.in.Insert(table, row)
}

func (s *tracedFull) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	sp := s.exec(stmt)
	defer s.tr.end(sp)
	return s.in.Execute(stmt)
}

func (s *tracedFull) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	sp := s.exec(stmt)
	ok, err := s.in.ExecuteExists(stmt)
	if sp != nil {
		sp.exists, sp.found = true, ok
	}
	s.tr.end(sp)
	return ok, err
}

func (s *tracedFull) ExecuteStream(stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	sp := s.exec(stmt)
	defer s.tr.end(sp)
	return s.in.ExecuteStream(stmt, sink)
}

// tracedSharded wraps the remote engine's *shard.ShardedSource; its self
// time is the coordinator's (charged to shard).
type tracedSharded struct {
	in *shard.ShardedSource
	tr *tracer
}

func (s *tracedSharded) begin(ctx context.Context, stmt *sql.SelectStmt) (*span, context.Context) {
	return s.tr.begin(ctx, levelSource, "shard", -1, stmt)
}

func (s *tracedSharded) Name() string               { return s.in.Name() }
func (s *tracedSharded) Schema() *relational.Schema { return s.in.Schema() }
func (s *tracedSharded) HasInstanceAccess() bool    { return s.in.HasInstanceAccess() }
func (s *tracedSharded) ExecutesConcurrently() bool { return s.in.ExecutesConcurrently() }
func (s *tracedSharded) Close() error               { return s.in.Close() }

func (s *tracedSharded) TableVersion(table string) (uint64, bool) { return s.in.TableVersion(table) }

func (s *tracedSharded) AttributeScore(table, column, keyword string) float64 {
	sp, _ := s.begin(nil, nil)
	defer s.tr.end(sp)
	return s.in.AttributeScore(table, column, keyword)
}

func (s *tracedSharded) EdgeDistance(e relational.JoinEdge) (float64, error) {
	sp, _ := s.begin(nil, nil)
	defer s.tr.end(sp)
	return s.in.EdgeDistance(e)
}

func (s *tracedSharded) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	sp, _ := s.begin(nil, nil)
	defer s.tr.end(sp)
	return s.in.ColumnStatistics(table, column)
}

func (s *tracedSharded) Insert(table string, row relational.Row) error {
	sp, _ := s.begin(nil, nil)
	defer s.tr.end(sp)
	return s.in.Insert(table, row)
}

func (s *tracedSharded) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	return s.ExecuteCtx(context.Background(), stmt)
}

func (s *tracedSharded) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	sp, ctx := s.begin(ctx, stmt)
	defer s.tr.end(sp)
	return s.in.ExecuteCtx(ctx, stmt)
}

func (s *tracedSharded) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	return s.ExecuteExistsCtx(context.Background(), stmt)
}

func (s *tracedSharded) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	sp, ctx := s.begin(ctx, stmt)
	ok, err := s.in.ExecuteExistsCtx(ctx, stmt)
	if sp != nil {
		sp.exists, sp.found = true, ok
	}
	s.tr.end(sp)
	return ok, err
}

// tracedClient wraps one shard's *transport.Client as the coordinator's
// shard.Backend; its self time, the client call minus the server's
// execution inside it, is the wire (charged to transport).
type tracedClient struct {
	in    *transport.Client
	tr    *tracer
	shard int
}

func (c *tracedClient) begin(ctx context.Context, stmt *sql.SelectStmt) (*span, context.Context) {
	return c.tr.begin(ctx, levelClient, "transport", c.shard, stmt)
}

func (c *tracedClient) ExecutesConcurrently() bool { return c.in.ExecutesConcurrently() }
func (c *tracedClient) Close() error               { return c.in.Close() }

func (c *tracedClient) AttributeScore(table, column, keyword string) float64 {
	sp, _ := c.begin(nil, nil)
	defer c.tr.end(sp)
	return c.in.AttributeScore(table, column, keyword)
}

func (c *tracedClient) EdgeDistance(e relational.JoinEdge) (float64, error) {
	sp, _ := c.begin(nil, nil)
	defer c.tr.end(sp)
	return c.in.EdgeDistance(e)
}

func (c *tracedClient) ColumnStatistics(table, column string) (*relational.ColumnStats, error) {
	sp, _ := c.begin(nil, nil)
	defer c.tr.end(sp)
	return c.in.ColumnStatistics(table, column)
}

func (c *tracedClient) Insert(table string, row relational.Row) error {
	sp, _ := c.begin(nil, nil)
	defer c.tr.end(sp)
	return c.in.Insert(table, row)
}

func (c *tracedClient) Execute(stmt *sql.SelectStmt) (*sql.Result, error) {
	return c.ExecuteCtx(context.Background(), stmt)
}

func (c *tracedClient) ExecuteCtx(ctx context.Context, stmt *sql.SelectStmt) (*sql.Result, error) {
	sp, ctx := c.begin(ctx, stmt)
	defer c.tr.end(sp)
	return c.in.ExecuteCtx(ctx, stmt)
}

func (c *tracedClient) ExecuteStream(stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	return c.ExecuteStreamCtx(context.Background(), stmt, sink)
}

func (c *tracedClient) ExecuteStreamCtx(ctx context.Context, stmt *sql.SelectStmt, sink wrapper.RowSink) ([]string, error) {
	sp, ctx := c.begin(ctx, stmt)
	defer c.tr.end(sp)
	return c.in.ExecuteStreamCtx(ctx, stmt, sink)
}

func (c *tracedClient) ExecuteExists(stmt *sql.SelectStmt) (bool, error) {
	return c.ExecuteExistsCtx(context.Background(), stmt)
}

func (c *tracedClient) ExecuteExistsCtx(ctx context.Context, stmt *sql.SelectStmt) (bool, error) {
	sp, ctx := c.begin(ctx, stmt)
	ok, err := c.in.ExecuteExistsCtx(ctx, stmt)
	if sp != nil {
		sp.exists, sp.found = true, ok
	}
	c.tr.end(sp)
	return ok, err
}

// ---- attribution ----

// traceReport holds per-request means over the traced requests.
type traceReport struct {
	Requests int
	// RequestMs is the mean traced request time.
	RequestMs float64
	// Self maps a layer to its mean self time per request. Self time is
	// wall time: at each instant the request's elapsed time is split
	// evenly over its innermost running calls, so concurrent siblings
	// share the instant instead of each claiming it, and the layers sum
	// to the request time.
	Self map[string]float64
	// Stage view of a search (inclusive, mean per request): the stages
	// run one after another, so together with the benchmark's own glue they
	// make up the request.
	ForwardMs, BackwardMs, CombineMs, PruneMs, ExecuteMs float64
	// Probes and ProbesKept count the source's existence probes issued
	// from Explain (PruneEmpty) and the ones that found a tuple.
	Probes, ProbesKept int
	// BackendMaxMs is the mean over coordinator calls that reached the
	// shards of their slowest backend call.
	BackendMaxMs float64
}

// SelfSum is the sum of every layer's self time except the benchmark's own.
func (r traceReport) SelfSum() float64 {
	sum := 0.0
	for layer, v := range r.Self {
		if layer != "bench" {
			sum += v
		}
	}
	return sum
}

// attribute turns recorded spans into per-request layer times.
func attribute(spans []span) traceReport {
	byReq := map[int64][]*span{}
	for i := range spans {
		byReq[spans[i].req] = append(byReq[spans[i].req], &spans[i])
	}
	rep := traceReport{Self: map[string]float64{}}
	var backendMaxSum float64
	var backendMaxN int
	for _, ss := range byReq {
		var root *span
		for _, s := range ss {
			if s.level == levelRoot {
				root = s
			}
		}
		if root == nil {
			continue // stragglers of a request recorded before tracing began
		}
		rep.Requests++
		rep.RequestMs += ms(root.end - root.start)
		byID := make(map[uint64]*span, len(ss))
		for _, s := range ss {
			byID[s.id] = s
		}
		parents := resolveParents(ss, byID, root)
		for layer, d := range selfTimes(ss, parents, root) {
			rep.Self[layer] += ms(d)
		}
		children := map[*span][]*span{}
		for _, s := range ss {
			if p := parents[s]; p != nil {
				children[p] = append(children[p], s)
			}
		}
		for _, s := range ss {
			switch {
			case s.level == levelStage:
				d := ms(s.end - s.start)
				switch s.layer {
				case "core.forward":
					rep.ForwardMs += d
				case "core.backward":
					rep.BackwardMs += d
				case "core.combine":
					probe := ms(union(children[s], s.start, s.end))
					rep.PruneMs += probe
					rep.CombineMs += d - probe
					for _, c := range children[s] {
						if c.level == levelSource && c.exists {
							rep.Probes++
							if c.found {
								rep.ProbesKept++
							}
						}
					}
				case "core.execute":
					rep.ExecuteMs += d
				}
			case s.level == levelSource:
				longest := time.Duration(-1)
				for _, c := range children[s] {
					if c.level == levelClient && c.end-c.start > longest {
						longest = c.end - c.start
					}
				}
				if longest >= 0 {
					backendMaxSum += ms(longest)
					backendMaxN++
				}
			}
		}
	}
	if rep.Requests > 0 {
		n := float64(rep.Requests)
		rep.RequestMs /= n
		for k := range rep.Self {
			rep.Self[k] /= n
		}
		rep.ForwardMs /= n
		rep.BackwardMs /= n
		rep.CombineMs /= n
		rep.PruneMs /= n
		rep.ExecuteMs /= n
	}
	rep.BackendMaxMs = ratio(backendMaxSum, float64(backendMaxN))
	return rep
}

// resolveParents links every span of one request to its caller. A link
// carried by the context wins. Calls the engine or coordinator make
// without a context, and shard-server calls across the wire, are linked
// to the innermost call one level up whose interval contains them; a
// server call prefers a client call to the same shard with the same
// statement text.
func resolveParents(ss []*span, byID map[uint64]*span, root *span) map[*span]*span {
	parents := make(map[*span]*span, len(ss))
	for _, s := range ss {
		if s == root {
			continue
		}
		if p := byID[s.parent]; s.parent != 0 && p != nil {
			parents[s] = p
			continue
		}
		var best *span
		score := -1
		for _, c := range ss {
			if c == s || c.level >= s.level || c.start > s.start || c.end < s.end {
				continue
			}
			sc := c.level * 4
			if s.level == levelServer && c.level == levelClient {
				if c.shard != s.shard {
					continue
				}
				if c.sql == s.sql {
					sc += 2
				}
			}
			if sc > score || (sc == score && c.start > best.start) {
				best, score = c, sc
			}
		}
		if best == nil {
			best = root
		}
		parents[s] = best
	}
	return parents
}

// selfTimes charges each instant of the root's interval to the request's
// innermost running calls, split evenly among them.
func selfTimes(ss []*span, parents map[*span]*span, root *span) map[string]time.Duration {
	clip := func(d time.Duration) time.Duration {
		if d < root.start {
			return root.start
		}
		if d > root.end {
			return root.end
		}
		return d
	}
	var cuts []time.Duration
	for _, s := range ss {
		cuts = append(cuts, clip(s.start), clip(s.end))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	out := map[string]time.Duration{}
	busy := map[*span]bool{}
	var leaves []*span
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if b <= a {
			continue
		}
		clear(busy)
		for _, s := range ss {
			if clip(s.start) <= a && clip(s.end) >= b {
				if p := parents[s]; p != nil {
					busy[p] = true
				}
			}
		}
		leaves = leaves[:0]
		for _, s := range ss {
			if clip(s.start) <= a && clip(s.end) >= b && !busy[s] {
				leaves = append(leaves, s)
			}
		}
		share := (b - a) / time.Duration(len(leaves))
		for _, s := range leaves {
			out[s.layer] += share
		}
	}
	return out
}

// union measures how much of [lo, hi] the spans cover.
func union(ss []*span, lo, hi time.Duration) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range ss {
		a, b := max(s.start, lo), min(s.end, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
