package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// rounds is how many fresh deployments a timed run measures.
const rounds = 5

type config struct {
	workload string
	seed     int64 // workload seed: the request stream
	dataSeed int64 // dataset seed: the data and the request population
	seconds  int
	trace    bool
	workdir  string // where WAL directories go
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner carries one run's state.
type runner struct {
	cfg    config
	sp     spec
	tf     *traffic
	mirror *relational.Database // unpartitioned, never written: the reference interpreter's data
	dep    *deployment          // the traced run's deployment
	cl     *client              // the traced run's client
	out    io.Writer
	start  time.Time
	res    *result
	ok     bool // false once a check outside the checker fails
}

func (r *runner) logf(format string, args ...any) {
	fmt.Fprintf(r.out, "[%6.2fs] "+format+"\n", append([]any{time.Since(r.start).Seconds()}, args...)...)
}

func (r *runner) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *runner) failf(format string, args ...any) {
	r.ok = false
	r.logf("CHECK FAILED: "+format, args...)
}

func run(cfg config, out io.Writer) (*result, error) {
	sp, ok := specs[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	r := &runner{cfg: cfg, sp: sp, tf: newTraffic(sp), out: out, ok: true, start: time.Now(),
		res: &result{Metrics: map[string]metric{}}}
	r.logf("loadbench: workload=%s seed=%d data_seed=%d seconds=%d trace=%v", cfg.workload, cfg.seed, cfg.dataSeed, cfg.seconds, cfg.trace)
	r.logf("host: %s", fingerprint(cfg))

	dataCfg := datasets.Config{Seed: cfg.dataSeed, Scale: imdbScale}
	r.mirror = datasets.IMDB(dataCfg)
	// The population belongs to the dataset, like a query log: it comes
	// from the dataset seed, and the workload seed drives the request
	// stream drawn from it.
	if sp.reads {
		r.tf.setReads(readPopulation(cfg.dataSeed))
	} else {
		r.tf.setSearches(searchPopulation(r.mirror, cfg.dataSeed))
		ref, err := referenceRankings(referenceEngine(sp.shape, dataCfg), r.tf.queries, senders)
		if err != nil {
			return nil, err
		}
		r.tf.chk.ref = ref
	}

	r.logf("inputs ready: %d queries, %d read statements", len(r.tf.queries), len(r.tf.reads))
	walRoot := filepath.Join(cfg.workdir, fmt.Sprintf("wal-%d", os.Getpid()))
	defer os.RemoveAll(walRoot)

	var all []sample
	if cfg.trace {
		ss, err := r.traced(walRoot)
		if err != nil {
			return nil, err
		}
		all = ss
	} else {
		ss, err := r.timed(walRoot)
		if err != nil {
			return nil, err
		}
		all = ss
	}

	r.logf("verifying rows against the reference interpreter")
	r.tf.chk.verifyRows(r.mirror, senders)
	if msg := r.tf.chk.report(); msg != "" {
		r.logf("CHECK FAILED: %s", msg)
	}
	if len(r.tf.queries) > 0 {
		r.logf("success_at_3 %.4f ratio (n=%d distinct queries)", r.successAt3(), len(r.tf.queries))
	}
	r.res.Attempted += len(all)
	r.res.Failed += failures(all)
	r.res.Correct = r.ok && r.tf.chk.ok()
	r.logf("failed_ratio %.6f ratio (failed=%d attempted=%d)", ratio(float64(r.res.Failed), float64(r.res.Attempted)), r.res.Failed, r.res.Attempted)
	return r.res, nil
}

// round is one stood-up deployment of a timed run, from set-up to
// teardown.
type round struct {
	setup, warmup time.Duration
	heap          int64 // live heap the deployment added, after warm-up
	warm          []sample
	open, closed  []sample
	closedDur     time.Duration
}

// timed measures the end-to-end metrics over `rounds` fresh deployments.
// Each round sets the server up, warms it with the stream's next pass over
// the population, sent one at a time, then runs its share of an open-loop
// Poisson phase at the workload's fixed rate and of a closed-loop phase
// for capacity.
// Every metric but the heap is the median over the rounds, so a run
// reports what several restarted servers did, not one server's luck.
func (r *runner) timed(walRoot string) ([]sample, error) {
	total := time.Duration(r.cfg.seconds) * time.Second
	openDur, closedDur := total*6/10/rounds, total*4/10/rounds
	rng := rand.New(rand.NewSource(r.cfg.seed + 1))
	pick := r.tf.picker(rng)
	var rs []round
	for i := 0; i < rounds; i++ {
		base := liveHeap()
		start := time.Now()
		d, err := deploy(r.sp.shape, r.cfg.dataSeed, filepath.Join(walRoot, fmt.Sprintf("round-%d", i)), nil)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rd := round{setup: time.Since(start)}
		cl := newClient(d.base, r.tf)
		// Each measured phase starts from a collected heap, so garbage
		// left by the previous phase does not land in it.
		runtime.GC()
		rd.warm, rd.warmup = cl.sequential(r.tf.pass(pick))
		rd.heap = liveHeap() - base
		rd.open = cl.openLoop(rng, r.sp.rate, openDur, pick)
		runtime.GC()
		rd.closed, rd.closedDur = cl.closedLoop(closedDur, pick)
		if r.sp.writeEvery > 0 {
			r.checkInserts(d)
		}
		cl.close()
		d.close()
		r.logf("round %d: setup %v, warm-up %v (%d requests), heap %.2f MiB of %.2f, open loop %d requests, closed loop %d completions in %v, %d goroutines",
			i, rd.setup.Round(time.Millisecond), rd.warmup.Round(time.Millisecond), len(rd.warm), float64(rd.heap)/(1<<20), float64(base+rd.heap)/(1<<20),
			len(rd.open), len(rd.closed), rd.closedDur.Round(time.Millisecond), runtime.NumGoroutine())
		rs = append(rs, rd)
	}

	var all, open []sample
	var setups, warmups, capacity, p50s []float64
	for _, rd := range rs {
		all = append(append(append(all, rd.warm...), rd.open...), rd.closed...)
		open = append(open, rd.open...)
		setups = append(setups, rd.setup.Seconds())
		warmups = append(warmups, rd.warmup.Seconds())
		capacity = append(capacity, float64(underLimit(rd.closed, r.sp.limit))/rd.closedDur.Seconds())
		p50s = append(p50s, summarize(latencies(rd.open, anyKind)).P50)
	}
	r.set("setup_s", median(setups), "s")
	r.set("warmup_s", median(warmups), "s")
	r.set("capacity_rps", median(capacity), "1/s")
	r.set("p50_ms", median(p50s), "ms")
	// Later rounds find earlier deployments' plans in the process-wide
	// plan cache, so only the first round's heap is the server's alone.
	r.set("heap_mb", float64(rs[0].heap)/(1<<20), "MiB")
	r.logf("per round: capacity_rps %.1f, p50_ms %.3f", capacity, p50s)

	// Tail latency is reported but not a metric: on a shared two-CPU
	// machine every percentile from p90 up moved by a fifth to a third
	// between identical runs, more than a regression bound can allow.
	lat := summarize(latencies(open, anyKind))
	r.logf("open loop: %.0f req/s, %d requests over %d rounds, %d senders", r.sp.rate, len(open), rounds, senders)
	r.logLatency("latency", lat)
	r.logf("latency_ms p90 %.3f, p95 %.3f, p98 %.3f (pooled)", percentile(lat.Samples, 90), percentile(lat.Samples, 95), percentile(lat.Samples, 98))
	for _, k := range []reqKind{kindSearch, kindSQL, kindInsert} {
		if s := summarize(latencies(open, only(k))); s.N > 0 && s.N < lat.N {
			r.logLatency(k.String(), s)
		}
	}
	g := summarizeLag(lags(open))
	r.logf("gen_lag_ms p50=%.3f p99=%.3f max=%.3f late=%d/%d", g.P50, g.P99, g.Max, g.Late, g.N)
	w := summarize(waits(open))
	r.logf("sender_wait_ms p50=%.3f p99=%.3f (due requests waiting for one of %d senders)", w.P50, w.P99, senders)
	if g.behind() {
		r.logf("WARNING: the generator fell behind its schedule (%d of %d sends left more than %v late); latency includes its own backlog", g.Late, g.N, lateAfter)
	}
	r.set("ok_ratio", 1-ratio(float64(failures(all)), float64(len(all))), "ratio")
	return all, nil
}

func (r *runner) logLatency(name string, s latencySummary) {
	r.logf("%s_p50_ms %.3f ms, %s_p99_ms %.3f ms, p%g %.3f ms (n=%d)", name, s.P50, name, s.P99, s.TopPct, s.TopMs, s.N)
}

// traced runs the layer-by-layer measurement. Phase A drives the server
// over HTTP, untraced, and reads every layer's counters as deltas. Phases
// B to D then call the engine directly in Engine.SearchCtx's order (or
// RunSQL / Insert) over one request list T: B once to settle the caches,
// C untraced and D traced. C and D must agree on the planner counters and
// on every answer; D's spans give the per-layer times and D minus C the
// tracing overhead.
func (r *runner) traced(walRoot string) ([]sample, error) {
	tr := newTracer()
	d, err := deploy(r.sp.shape, r.cfg.dataSeed, walRoot, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer d.close()
	r.dep = d
	r.cl = newClient(d.base, r.tf)
	defer r.cl.close()
	total := time.Duration(r.cfg.seconds) * time.Second
	rng := rand.New(rand.NewSource(r.cfg.seed + 1))
	pick := r.tf.picker(rng)
	warm, _ := r.cl.sequential(r.tf.pass(pick))

	before := r.dep.counters()
	open := r.cl.openLoop(rng, r.sp.rate, total*4/10, pick)
	r.layerCounters(open, before, r.dep.counters())

	ctx := context.Background()
	var list []request
	var direct []sample
	start := time.Now()
	for time.Since(start) < total*2/10 {
		req := pick()
		list = append(list, req)
		_, s := r.direct(ctx, tr, req)
		direct = append(direct, s)
	}
	pass := func() ([]string, []sample, plannerWork) {
		before := r.dep.counters()
		digests := make([]string, len(list))
		ss := make([]sample, len(list))
		for i, req := range list {
			tr.req.Store(int64(i + 1))
			digests[i], ss[i] = r.direct(ctx, tr, req)
		}
		r.dep.quiesce()
		after := r.dep.counters()
		return digests, ss, plannerWork{sub(after.planner, before.planner), after.shard.ExistsProbes - before.shard.ExistsProbes}
	}
	digC, untraced, workC := pass()
	tr.on.Store(true)
	digD, traced, workD := pass()
	tr.on.Store(false)
	direct = append(append(direct, untraced...), traced...)

	if !workC.same(workD) {
		r.failf("planner counters differ between the untraced and traced passes:\n  untraced %+v\n  traced   %+v", workC, workD)
	}
	for i := range digC {
		if digC[i] != digD[i] {
			r.failf("request %d of the direct passes answered differently traced and untraced", i)
			break
		}
	}

	rep := attribute(tr.take())
	uc, tc := summarize(latencies(untraced, anyKind)), summarize(latencies(traced, anyKind))
	r.set("trace.request_ms", rep.RequestMs, "ms")
	r.set("trace.untraced_p50_ms", uc.P50, "ms")
	r.set("trace.traced_p50_ms", tc.P50, "ms")
	r.set("trace.overhead_ms", tc.P50-uc.P50, "ms")
	coreSelf := 0.0
	for layer, v := range rep.Self {
		if strings.HasPrefix(layer, "core.") {
			coreSelf += v
		}
	}
	layerSum := rep.SelfSum()
	r.set("trace.coverage_ratio", ratio(layerSum, rep.RequestMs), "ratio")
	r.set("core.self_ms", coreSelf, "ms")
	r.set("sql.exec_ms", rep.Self["sql"], "ms")
	r.set("shard.scatter_ms", rep.Self["shard"], "ms")
	r.set("transport.wire_ms", rep.Self["transport"], "ms")
	r.set("wrapper.score_ms", rep.Self["wrapper"], "ms")
	r.set("relational.insert_ms", rep.Self["relational"], "ms")
	r.set("core.forward_ms", rep.ForwardMs, "ms")
	r.set("core.backward_ms", rep.BackwardMs, "ms")
	r.set("core.combine_ms", rep.CombineMs, "ms")
	r.set("core.prune_ms", rep.PruneMs, "ms")
	r.set("core.execute_ms", rep.ExecuteMs, "ms")
	searches := 0
	for _, req := range list {
		if req.kind == kindSearch {
			searches++
		}
	}
	r.set("core.prune_probes", ratio(float64(rep.Probes), float64(searches)), "count")
	r.set("core.prune_kept_ratio", ratio(float64(rep.ProbesKept), float64(rep.Probes)), "ratio")
	r.set("shard.backend_max_ms", rep.BackendMaxMs, "ms")
	successAt3 := 0.0
	if len(r.tf.queries) > 0 {
		successAt3 = r.successAt3()
	}
	r.set("core.success_at_3", successAt3, "ratio")

	r.logf("traced %d requests (list of %d, replayed untraced then traced): request %.3f ms, layer self times sum to %.3f ms (coverage %.3f)",
		rep.Requests, len(list), rep.RequestMs, layerSum, ratio(layerSum, rep.RequestMs))
	layers := make([]string, 0, len(rep.Self))
	for l := range rep.Self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		r.logf("  self %-14s %.4f ms", l, rep.Self[l])
	}
	r.logf("tracing overhead: traced p50 %.3f ms - untraced p50 %.3f ms = %.3f ms (n=%d)", tc.P50, uc.P50, tc.P50-uc.P50, tc.N)
	if c := ratio(layerSum, rep.RequestMs); c < 0.9 || c > 1.1 {
		r.logf("WARNING: layer self times cover %.3f of the traced request time, outside 0.9-1.1", c)
	}
	if r.sp.writeEvery > 0 {
		r.checkInserts(d)
	}
	return append(append(warm, open...), direct...), nil
}

// direct runs one request against the engine, bypassing HTTP. While
// tracing is on it records the request's root span around the engine
// calls and one stage span per call. It returns the answer's digest and
// the request's sample; the answer is checked after the root span ends.
func (r *runner) direct(ctx context.Context, tr *tracer, req request) (string, sample) {
	eng := r.dep.eng
	stage := func(layer string) *span {
		sp, _ := tr.begin(nil, levelStage, layer, -1, nil)
		return sp
	}
	var (
		exps []*core.Explanation
		res  *sql.Result
		id   int64
		err  error
	)
	if req.kind == kindInsert {
		id = r.tf.nextID.Add(1)
		r.tf.attempt(id)
	}
	start := time.Now()
	root, _ := tr.begin(nil, levelRoot, "bench", -1, nil)
	switch req.kind {
	case kindSearch:
		exps, res, err = searchDirect(ctx, eng, stage, tr.end, r.tf.queries[req.idx].text)
	case kindSQL:
		sp := stage("core.execute")
		res, err = eng.RunSQL(ctx, r.tf.reads[req.idx])
		tr.end(sp)
	case kindInsert:
		sp := stage("core.insert")
		err = eng.Insert("movie", insertRow(id))
		tr.end(sp)
	}
	tr.end(root)
	s := sample{kind: req.kind, lat: time.Since(start), ok: err == nil}
	if err != nil {
		r.logf("direct %s request failed: %v", req.kind, err)
		return "", s
	}
	switch req.kind {
	case kindSearch:
		r.tf.chk.checkSearchResult(r.tf.queries[req.idx].text, exps, res)
		return digestSearch(exps, res), s
	case kindSQL:
		stmt := r.tf.reads[req.idx]
		r.tf.chk.observe(stmt, rowKeys(res.Rows), false, len(res.Rows))
		return digestRows(res), s
	default:
		r.tf.ack(id)
		return "insert", s
	}
}

// plannerWork is one pass's planner counter deltas with the number of
// per-shard existence probes the coordinator issued.
type plannerWork struct {
	planner     sql.PlannerStats
	shardProbes uint64
}

// same compares two passes over the same requests. Two things vary
// between identical passes by design. The coordinator stops issuing a
// search's per-shard existence probes once one finds a witness, so how
// many probes run (each one plan lookup and one existence fast path on
// its shard) depends on timing. And the plan cache is a process-wide LRU
// that a search's concurrent probes touch in no fixed order, so which
// lookups miss can differ. A miss builds a plan, and the plan-time
// counters (Plans, the scan-access counts, LazyIndexBuilds, JoinReorders,
// PushedPredicates) count what the statements that missed needed, so they
// can differ even when both passes built the same number of plans. The
// counters that depend on neither — lookups and existence fast paths net
// of issued probes, and what execution counts — must match exactly.
func (a plannerWork) same(b plannerWork) bool {
	p, q := a.planner, b.planner
	return p.PlanCacheHits+p.PlanCacheMisses-a.shardProbes == q.PlanCacheHits+q.PlanCacheMisses-b.shardProbes &&
		p.ExistsFastPaths-a.shardProbes == q.ExistsFastPaths-b.shardProbes &&
		p.LimitShortCircuits == q.LimitShortCircuits &&
		p.HashJoins == q.HashJoins &&
		p.NestedLoopJoins == q.NestedLoopJoins &&
		p.BuildSideSwaps == q.BuildSideSwaps
}

// searchDirect is Engine.SearchCtx taken apart at its stage boundaries,
// plus questd's top-1 execution.
func searchDirect(ctx context.Context, eng *core.Engine, stage func(string) *span, end func(*span), q string) ([]*core.Explanation, *sql.Result, error) {
	keywords := core.Tokenize(q)
	sp := stage("core.forward")
	configs, err := eng.Configurations(keywords)
	end(sp)
	if err != nil {
		return nil, nil, err
	}
	var exps []*core.Explanation
	if len(configs) > 0 {
		sp = stage("core.backward")
		interps, err := eng.Interpretations(configs)
		end(sp)
		if err != nil {
			return nil, nil, err
		}
		if len(interps) > 0 {
			sp = stage("core.combine")
			exps, err = eng.Explain(configs, interps)
			end(sp)
			if err != nil {
				return nil, nil, err
			}
		}
	}
	if len(exps) == 0 {
		return exps, nil, nil
	}
	sp = stage("core.execute")
	top, err := eng.ExecuteCtx(ctx, exps[0])
	end(sp)
	return exps, top, err
}

func insertRow(id int64) relational.Row {
	v := insertValues(id)
	return relational.Row{
		relational.Int(v[0].(int64)),
		relational.String_(v[1].(string)),
		relational.Int(v[2].(int64)),
		relational.String_(v[3].(string)),
		relational.Float(v[4].(float64)),
	}
}

// checkInserts holds the written rows to the acknowledgements: readable
// through the engine, then recovered exactly from each shard's WAL
// directory after the fleet stops.
func (r *runner) checkInserts(d *deployment) {
	acked, attempted := r.tf.takeInsertKeys()
	res, err := d.eng.RunSQL(context.Background(), fmt.Sprintf(
		"SELECT movie_id, title, production_year, genre, rating FROM movie WHERE production_year >= %d", insertYearMin))
	if err != nil {
		r.failf("reading inserted rows: %v", err)
		return
	}
	read, dup := insertedKeys(res.Rows)
	if dup || !between(acked, read, attempted) {
		r.failf("read %d inserted rows (duplicates %v); %d were acknowledged, %d attempted", len(read), dup, len(acked), len(attempted))
	}
	r.logf("inserts: %d acknowledged, %d read back", len(acked), len(read))
	if len(d.walDirs) == 0 {
		return
	}
	shards, err := d.recoverShards("movie")
	if err != nil {
		r.failf("recovering the shards: %v", err)
		return
	}
	var all []relational.Row
	for _, rows := range shards {
		all = append(all, rows...)
	}
	recovered, dup := insertedKeys(all)
	if dup || !between(acked, recovered, attempted) {
		r.failf("recovered %d inserted rows (duplicates %v); %d were acknowledged, %d attempted", len(recovered), dup, len(acked), len(attempted))
	}
	r.logf("inserts: %d recovered from %d WAL directories", len(recovered), len(shards))
}

// between reports lo ⊆ x ⊆ hi for sorted key lists without duplicates.
func between(lo, x, hi []string) bool {
	in := func(a, b []string) bool {
		set := make(map[string]bool, len(b))
		for _, k := range b {
			set[k] = true
		}
		for _, k := range a {
			if !set[k] {
				return false
			}
		}
		return true
	}
	return in(lo, x) && in(x, hi)
}

func (r *runner) successAt3() float64 {
	rankings := make(map[string][]string, len(r.tf.queries))
	for _, q := range r.tf.queries {
		for _, ex := range r.tf.chk.ref[q.text] {
			rankings[q.text] = append(rankings[q.text], ex.SQL)
		}
	}
	return successAt3(r.tf.queries, rankings)
}

// referenceEngine builds the engine reference rankings come from: the
// workload's data layout (one database, or the same hash partitions in
// process) with the query cache and the Steiner memo off.
func referenceEngine(kind shapeKind, cfg datasets.Config) *core.Engine {
	opts := engineOptions()
	opts.QueryCacheSize = -1
	opts.Backward.CacheSize = -1
	db := datasets.IMDB(cfg)
	if kind == shapeSingle {
		return core.NewEngine(wrapper.NewFullAccessSource(db), opts)
	}
	parts, err := shard.Partition(db, shardCount)
	if err != nil {
		panic(err) // a positive shard count cannot fail
	}
	src, err := shard.New(db.Name, parts, shard.Options{})
	if err != nil {
		panic(err) // partitions share the schema by construction
	}
	return core.NewEngine(src, opts)
}

// ---- layer counters ----

// counterSet snapshots every layer counter the benchmark reads.
type counterSet struct {
	serve    serve.Stats
	planner  sql.PlannerStats
	shard    shard.Stats
	client   transport.ClientStats
	maint    relational.MaintenanceStats
	wal      wal.Stats
	mallocs  uint64
	allocB   uint64
	gcCPU    float64
	totalCPU float64
}

func (d *deployment) counters() counterSet {
	c := counterSet{serve: d.api.Stats(), planner: sql.Stats()}
	if d.sharded != nil {
		c.shard = d.sharded.Stats()
	}
	for _, cl := range d.clients {
		c.client = add(c.client, cl.Stats())
	}
	for _, db := range d.dbs {
		c.maint = add(c.maint, db.MaintenanceStats())
	}
	for _, l := range d.logs {
		c.wal = add(c.wal, l.Stats())
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocB = ms.Mallocs, ms.TotalAlloc
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	c.gcCPU, c.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	return c
}

// layerCounters reports phase A's counter deltas per request.
func (r *runner) layerCounters(open []sample, before, after counterSet) {
	n := float64(len(open))
	sv := sub(after.serve, before.serve)
	executed := float64(sv.Searches + sv.SQLQueries + sv.Inserts)
	execMs := ratio(float64(sv.ExecNs), executed) / 1e6
	r.set("serve.queue_wait_ms", ratio(float64(sv.QueueWaitNs), executed)/1e6, "ms")
	r.set("serve.exec_ms", execMs, "ms")
	var sent time.Duration
	for _, s := range open {
		sent += s.lat - s.wait
	}
	r.set("serve.overhead_ms", ratio(ms(sent), n)-execMs, "ms")

	pl := sub(after.planner, before.planner)
	r.set("sql.plan_cache_hit_ratio", ratio(float64(pl.PlanCacheHits), float64(pl.PlanCacheHits+pl.PlanCacheMisses)), "ratio")
	r.set("sql.full_scans", ratio(float64(pl.FullScans), n), "count")
	r.set("sql.exists_fast_paths", ratio(float64(pl.ExistsFastPaths), n), "count")

	sh := sub(after.shard, before.shard)
	queries := float64(sh.PushdownQueries + sh.AggPushdownQueries + sh.GatherQueries)
	r.set("shard.rows_shipped_per_query", ratio(float64(sh.RowsShipped), queries), "count")
	r.set("shard.exists_probes", ratio(float64(sh.ExistsProbes), n), "count")
	r.set("shard.exists_short_circuit_ratio", ratio(float64(sh.ExistsShortCircuits), float64(sh.ExistsProbes)), "ratio")
	r.set("shard.pruned_probes", ratio(float64(sh.PrunedProbes), n), "count")

	tc := sub(after.client, before.client)
	r.set("transport.bytes_per_op", ratio(float64(tc.BytesReceived), float64(tc.Operations)), "B")
	r.set("transport.dials", float64(tc.Dials), "count")
	r.set("transport.retries", float64(tc.Retries), "count")
	r.set("transport.columnar_frame_ratio", ratio(float64(tc.ColumnarFrames), float64(tc.ColumnarFrames+tc.RowFrames)), "ratio")

	writes := float64(sv.RowsInserted) / 1000
	mt := sub(after.maint, before.maint)
	r.set("relational.stats_full_rebuilds", ratio(float64(mt.StatsFullRebuilds), writes), "count/1k_writes")
	r.set("relational.stats_incremental_updates", ratio(float64(mt.StatsIncrementalUpdates), writes), "count/1k_writes")
	r.set("relational.sorted_index_rebuilds", ratio(float64(mt.SortedIndexRebuilds), writes), "count/1k_writes")
	r.set("relational.side_run_merges", ratio(float64(mt.SortedIndexMerges), writes), "count/1k_writes")

	wl := sub(after.wal, before.wal)
	r.set("wal.commit_wait_ms", ratio(float64(wl.CommitWaitNs), float64(wl.Appends))/1e6, "ms")
	r.set("wal.ops_per_batch", ratio(float64(wl.Appends), float64(wl.Batches)), "count")
	r.set("wal.snapshots", float64(wl.Snapshots), "count")
	r.set("wal.snapshot_ms", ratio(float64(wl.SnapshotNs), float64(wl.Snapshots))/1e6, "ms")
	r.set("wal.bytes_per_op", ratio(float64(wl.BytesAppended), float64(wl.Appends)), "B")

	r.set("go.allocs_per_req", ratio(float64(after.mallocs-before.mallocs), n), "count")
	r.set("go.alloc_bytes_per_req", ratio(float64(after.allocB-before.allocB), n), "B")
	r.set("go.gc_cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")

	g := summarizeLag(lags(open))
	r.set("gen.lag_p99_ms", g.P99, "ms")
	if g.behind() {
		r.logf("WARNING: the generator fell behind its schedule in phase A (%d of %d sends late)", g.Late, g.N)
	}
	r.logf("phase A: %d requests over HTTP, %d executed, %.0f rows inserted", len(open), int(executed), writes*1000)
}

// sub returns a - b field by field for a struct of unsigned or signed
// integer counters.
func sub[T any](a, b T) T { return combine(a, b, -1) }

// add returns a + b field by field.
func add[T any](a, b T) T { return combine(a, b, 1) }

func combine[T any](a, b T, sign int64) T {
	var out T
	va, vb, vo := reflect.ValueOf(a), reflect.ValueOf(b), reflect.ValueOf(&out).Elem()
	for i := 0; i < vo.NumField(); i++ {
		switch f := vo.Field(i); f.Kind() {
		case reflect.Uint64:
			if sign < 0 {
				f.SetUint(va.Field(i).Uint() - vb.Field(i).Uint())
			} else {
				f.SetUint(va.Field(i).Uint() + vb.Field(i).Uint())
			}
		case reflect.Int:
			f.SetInt(va.Field(i).Int() + sign*vb.Field(i).Int())
		default:
			panic(fmt.Sprintf("counter field %s has kind %s", vo.Type().Field(i).Name, f.Kind()))
		}
	}
	return out
}

// liveHeap collects garbage twice, so objects parked in sync.Pool victim
// caches go too, and reads the heap bytes still in use.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// fingerprint describes the host and the run's seeds.
func fingerprint(cfg config) string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s data_seed=%d workload_seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), cfg.dataSeed, cfg.seed)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
