// Benchmarks regenerating the paper's evaluation, one set per experiment
// row of DESIGN.md §3 / EXPERIMENTS.md. Quality numbers are attached via
// b.ReportMetric so `go test -bench` output doubles as the experiment
// record; cmd/questbench prints the same tables in report form.
package quest_test

import (
	"fmt"
	"strings"
	"testing"

	quest "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/fulltext"
	"repro/internal/relational"
	"repro/internal/shard"
	"repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

func engineFor(db *quest.Database) *quest.Engine {
	return quest.Open(db, quest.Defaults())
}

// ---------------------------------------------------------------------------
// E1 — schema-based keyword→SQL on growing instances (demo message 1).
// Latency of the full pipeline as the IMDB instance scales; the schema
// graph stays constant while the data graph grows.

func benchmarkE1Scale(b *testing.B, scale int) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: scale})
	eng := engineFor(db)
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates()[:3], 3)
	if len(w.Queries) == 0 {
		b.Fatal("empty workload")
	}
	b.ReportMetric(float64(db.TotalRows()), "tuples")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := w.Queries[i%len(w.Queries)]
		if _, err := eng.Search(strings.Join(q.Keywords, " ")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1_SearchIMDB_Scale1(b *testing.B)  { benchmarkE1Scale(b, 1) }
func BenchmarkE1_SearchIMDB_Scale4(b *testing.B)  { benchmarkE1Scale(b, 4) }
func BenchmarkE1_SearchIMDB_Scale16(b *testing.B) { benchmarkE1Scale(b, 16) }

// BenchmarkE1_GraphSizes records schema-graph vs data-graph size: the
// structural scalability argument (schema graph constant, data graph
// linear in the instance).
func BenchmarkE1_GraphSizes(b *testing.B) {
	for _, scale := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			db := datasets.IMDB(datasets.Config{Seed: 42, Scale: scale})
			eng := engineFor(db)
			var dgNodes int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dg, err := baseline.NewDataGraph(db)
				if err != nil {
					b.Fatal(err)
				}
				dgNodes = dg.NodeCount()
			}
			b.ReportMetric(float64(eng.Backward().Graph().Len()), "schema-nodes")
			b.ReportMetric(float64(dgNodes), "data-nodes")
		})
	}
}

// BenchmarkE1_StageBreakdown separates forward, backward and combine cost.
func BenchmarkE1_StageBreakdown(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	eng := engineFor(db)
	keywords := []string{"smith", "drama"}
	b.Run("forward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Configurations(keywords); err != nil {
				b.Fatal(err)
			}
		}
	})
	configs, err := eng.Configurations(keywords)
	if err != nil || len(configs) == 0 {
		b.Fatalf("no configurations: %v", err)
	}
	b.Run("backward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Interpretations(configs); err != nil {
				b.Fatal(err)
			}
		}
	})
	interps, err := eng.Interpretations(configs)
	if err != nil || len(interps) == 0 {
		b.Fatalf("no interpretations: %v", err)
	}
	b.Run("combine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := eng.Explain(configs, interps); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// E2 — module disagreement (demo message 2): the a-priori mode, feedback
// mode and final combination produce measurably different rankings.

func BenchmarkE2_ModuleDisagreement(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates(), 3)
	train, test := eval.Split(w)
	eng.AddFeedback(eval.FeedbackFor(train, len(train.Queries)))

	var agree1, jaccard float64
	n := 0
	measure := func() {
		agree1, jaccard = 0, 0
		n = 0
		for _, q := range test.Queries {
			ap := eng.Forward().TopKApriori(q.Keywords, 10)
			fb := eng.Forward().TopKFeedback(q.Keywords, 10)
			if len(ap) == 0 || len(fb) == 0 {
				continue
			}
			n++
			if ap[0].ID() == fb[0].ID() {
				agree1++
			}
			jaccard += jaccardIDs(ap, fb)
		}
		if n > 0 {
			agree1 /= float64(n)
			jaccard /= float64(n)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		measure()
	}
	b.ReportMetric(agree1, "top1-agreement")
	b.ReportMetric(jaccard, "jaccard@10")
}

func jaccardIDs(a, b []*core.Configuration) float64 {
	as := map[string]bool{}
	for _, c := range a {
		as[c.ID()] = true
	}
	inter, union := 0, len(as)
	for _, c := range b {
		if as[c.ID()] {
			inter++
		} else {
			union++
		}
	}
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// ---------------------------------------------------------------------------
// E3 — schema-level Steiner vs instance-level baselines (demo message 3).

func benchmarkE3System(b *testing.B, dbName string, system string) {
	cfg := datasets.Config{Seed: 42, Scale: 1}
	var db *quest.Database
	var templates []eval.Template
	switch dbName {
	case "imdb":
		db, templates = datasets.IMDB(cfg), eval.IMDBTemplates()
	case "mondial":
		db, templates = datasets.Mondial(cfg), eval.MondialTemplates()
	case "dblp":
		db, templates = datasets.DBLP(cfg), eval.DBLPTemplates()
	}
	g := eval.NewGenerator(db, 7)
	w := g.Generate(dbName, templates, 3)
	if len(w.Queries) == 0 {
		b.Fatal("empty workload")
	}

	var judge func(q *eval.Query) eval.Judgement
	switch system {
	case "quest":
		eng := engineFor(db)
		judge = func(q *eval.Query) eval.Judgement {
			ex, err := eng.Search(strings.Join(q.Keywords, " "))
			if err != nil {
				return eval.Judgement{Query: q}
			}
			return eval.Judge(q, ex)
		}
	case "banks":
		dg, err := baseline.NewDataGraph(db)
		if err != nil {
			b.Fatal(err)
		}
		ix := fulltext.BuildIndex(db)
		judge = func(q *eval.Query) eval.Judgement {
			answers, err := dg.Search(ix, q.Keywords, 10)
			if err != nil {
				return eval.Judgement{Query: q}
			}
			sets := make([][]string, len(answers))
			for i, a := range answers {
				sets[i] = a.Tables()
			}
			return eval.JudgeTables(q, sets)
		}
	case "discover":
		ix := fulltext.BuildIndex(db)
		d := baseline.NewDiscover(db, ix)
		judge = func(q *eval.Query) eval.Judgement {
			cns, err := d.TopK(q.Keywords, 10, 5)
			if err != nil {
				return eval.Judgement{Query: q}
			}
			sets := make([][]string, len(cns))
			for i, cn := range cns {
				sets[i] = cn.Tables
			}
			return eval.JudgeTables(q, sets)
		}
	}

	var m eval.Metrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		js := make([]eval.Judgement, 0, len(w.Queries))
		for _, q := range w.Queries {
			js = append(js, judge(q))
		}
		m = eval.Aggregate(js)
	}
	b.ReportMetric(m.SuccessAt1, "S@1")
	b.ReportMetric(m.SuccessAt3, "S@3")
	b.ReportMetric(m.MRR, "MRR")
}

func BenchmarkE3_IMDB_QUEST(b *testing.B)       { benchmarkE3System(b, "imdb", "quest") }
func BenchmarkE3_IMDB_BANKS(b *testing.B)       { benchmarkE3System(b, "imdb", "banks") }
func BenchmarkE3_IMDB_DISCOVER(b *testing.B)    { benchmarkE3System(b, "imdb", "discover") }
func BenchmarkE3_Mondial_QUEST(b *testing.B)    { benchmarkE3System(b, "mondial", "quest") }
func BenchmarkE3_Mondial_BANKS(b *testing.B)    { benchmarkE3System(b, "mondial", "banks") }
func BenchmarkE3_Mondial_DISCOVER(b *testing.B) { benchmarkE3System(b, "mondial", "discover") }
func BenchmarkE3_DBLP_QUEST(b *testing.B)       { benchmarkE3System(b, "dblp", "quest") }
func BenchmarkE3_DBLP_BANKS(b *testing.B)       { benchmarkE3System(b, "dblp", "banks") }
func BenchmarkE3_DBLP_DISCOVER(b *testing.B)    { benchmarkE3System(b, "dblp", "discover") }

// ---------------------------------------------------------------------------
// E4 — DS uncertainty adaptation (demo message 4): sweep (OCap, OCf).

func BenchmarkE4_UncertaintySweep(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates(), 4)
	train, test := eval.Split(w)

	for _, setting := range []struct {
		name      string
		ocap, ocf float64
		nFeedback int
	}{
		{"trust-apriori-cold", 0.1, 0.9, 0},
		{"trust-feedback-cold", 0.9, 0.1, 0},
		{"trust-apriori-warm", 0.1, 0.9, 12},
		{"trust-feedback-warm", 0.9, 0.1, 12},
	} {
		b.Run(setting.name, func(b *testing.B) {
			opts := quest.Defaults()
			opts.Uncertainty.OCap = setting.ocap
			opts.Uncertainty.OCf = setting.ocf
			eng := quest.Open(db, opts)
			if setting.nFeedback > 0 {
				eng.AddFeedback(eval.FeedbackFor(train, setting.nFeedback))
			}
			var m eval.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m = eval.Aggregate(eval.RunEngine(eng, test))
			}
			b.ReportMetric(m.SuccessAt1, "S@1")
			b.ReportMetric(m.MRR, "MRR")
		})
	}
}

// ---------------------------------------------------------------------------
// E5 — few training data (claim from §1): accuracy vs feedback volume for
// a-priori only, feedback only, and DS-combined.

func BenchmarkE5_FeedbackVolume(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates(), 4)
	train, test := eval.Split(w)

	for _, mode := range []string{"apriori", "feedback", "combined"} {
		for _, nfb := range []int{0, 4, 12} {
			if mode == "apriori" && nfb > 0 {
				continue
			}
			b.Run(fmt.Sprintf("%s-fb%d", mode, nfb), func(b *testing.B) {
				opts := quest.Defaults()
				switch mode {
				case "apriori":
					opts.DisableFeedback = true
				case "feedback":
					opts.DisableApriori = true
				}
				eng := quest.Open(db, opts)
				if nfb > 0 {
					eng.AddFeedback(eval.FeedbackFor(train, nfb))
				}
				var m eval.Metrics
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m = eval.Aggregate(eval.RunEngine(eng, test))
				}
				b.ReportMetric(m.ConfigMRR, "cfgMRR")
				b.ReportMetric(m.MRR, "MRR")
			})
		}
	}
}

// ---------------------------------------------------------------------------
// E6 — Deep Web: metadata-only wrapper vs full access.

func BenchmarkE6_HiddenVsFull(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates()[:4], 3)

	b.Run("full-access", func(b *testing.B) {
		eng := quest.Open(db, quest.Defaults())
		var m eval.Metrics
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m = eval.Aggregate(eval.RunEngine(eng, w))
		}
		b.ReportMetric(m.SuccessAt3, "S@3")
		b.ReportMetric(m.MRR, "MRR")
	})
	b.Run("metadata-only", func(b *testing.B) {
		opts := quest.Defaults()
		opts.UseLike = true
		eng := quest.OpenHidden(db, quest.DefaultThesaurus(), opts)
		var m eval.Metrics
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m = eval.Aggregate(eval.RunEngine(eng, w))
		}
		b.ReportMetric(m.SuccessAt3, "S@3")
		b.ReportMetric(m.MRR, "MRR")
	})
}

// ---------------------------------------------------------------------------
// E8 — ablations: Steiner sub-tree pruning and MI edge weights.

func BenchmarkE8_SteinerPruning(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	for _, dedup := range []bool{true, false} {
		name := "dedup-on"
		if !dedup {
			name = "dedup-off"
		}
		b.Run(name, func(b *testing.B) {
			opts := quest.Defaults()
			opts.Backward.Dedup = dedup
			eng := quest.Open(db, opts)
			var count int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ex, err := eng.Search("italy city river")
				if err != nil {
					b.Fatal(err)
				}
				count = len(ex)
			}
			b.ReportMetric(float64(count), "explanations")
		})
	}
}

func BenchmarkE8_MIWeights(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates()[:4], 3)
	for _, mi := range []bool{true, false} {
		name := "mi-on"
		if !mi {
			name = "mi-off"
		}
		b.Run(name, func(b *testing.B) {
			opts := quest.Defaults()
			opts.Backward.UseMIWeights = mi
			eng := quest.Open(db, opts)
			var emptyRate float64
			var m eval.Metrics
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				js := eval.RunEngine(eng, w)
				m = eval.Aggregate(js)
				emptyRate = emptyTopRate(eng, w)
			}
			b.ReportMetric(m.MRR, "MRR")
			b.ReportMetric(emptyRate, "empty-top1")
		})
	}
}

// emptyTopRate measures how often the top explanation's SQL returns no
// tuples — the failure mode MI weighting is meant to reduce.
func emptyTopRate(eng *quest.Engine, w *eval.Workload) float64 {
	empty, n := 0, 0
	for _, q := range w.Queries {
		ex, err := eng.Search(strings.Join(q.Keywords, " "))
		if err != nil || len(ex) == 0 {
			continue
		}
		n++
		res, err := eng.Execute(ex[0])
		if err != nil || len(res.Rows) == 0 {
			empty++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(empty) / float64(n)
}

// ---------------------------------------------------------------------------
// Component micro-benchmarks (engine building blocks).

func BenchmarkComponent_FullTextIndexBuild(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fulltext.BuildIndex(db)
	}
}

func BenchmarkComponent_ListViterbiK10(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	kws := []string{"smith", "drama", "2008"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Forward().TopKApriori(kws, 10)
	}
}

func BenchmarkComponent_SteinerTopK(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	c := &core.Configuration{
		Keywords: []string{"a", "b", "c"},
		Terms: []core.Term{
			{Kind: core.KindDomain, Table: "city", Column: "name"},
			{Kind: core.KindDomain, Table: "river", Column: "name"},
			{Kind: core.KindDomain, Table: "organization", Column: "name"},
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Backward().TopK(c, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponent_SQLExecutorJoin(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	src := wrapper.NewFullAccessSource(db)
	stmt, err := quest.ParseSQL(`SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// shardedSourceFor partitions a fresh IMDB instance and opens the sharded
// execution layer over it.
func shardedSourceFor(b *testing.B, shards int) *quest.ShardedSource {
	b.Helper()
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	parts, err := quest.PartitionDatabase(db, shards)
	if err != nil {
		b.Fatal(err)
	}
	src, err := shard.New(db.Name, parts, shard.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return src
}

// BenchmarkComponent_ShardedJoinGather measures the scatter-gather join
// path: pushed-down fragments on 4 shards, coordinator join/finish.
// Compare against BenchmarkComponent_SQLExecutorJoin (same statement,
// single node).
func BenchmarkComponent_ShardedJoinGather(b *testing.B) {
	src := shardedSourceFor(b, 4)
	stmt, err := quest.ParseSQL(`SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Execute(stmt); err != nil { // warm shard plans/indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_ShardedExists measures the validation shape over the
// sharded layer: a join existence probe that gathers pushed-down fragments
// and stops at the coordinator's first witness row.
func BenchmarkComponent_ShardedExists(b *testing.B) {
	src := shardedSourceFor(b, 4)
	stmt, err := quest.ParseSQL(`SELECT person.name FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.ExecuteExists(stmt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := src.ExecuteExists(stmt)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("probe lost its witness rows")
		}
	}
}

// BenchmarkComponent_ShardedPointLookup measures a PK point query through
// partition pruning: one fragment query against one of four shards.
func BenchmarkComponent_ShardedPointLookup(b *testing.B) {
	src := shardedSourceFor(b, 4)
	stmt, err := quest.ParseSQL("SELECT title FROM movie WHERE movie_id = 100")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := src.Execute(stmt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := src.Execute(stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_RemoteGather measures the full wire path of the
// gather: pushed-down join fragments on 4 loopback shards, frames decoded
// at the coordinator. The v1/v2 pair isolates the columnar codec's cost
// and allocation profile against plain row frames on identical results.
func BenchmarkComponent_RemoteGather(b *testing.B) {
	stmt, err := quest.ParseSQL(`SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	if err != nil {
		b.Fatal(err)
	}
	for _, proto := range []struct {
		name string
		ver  int
	}{{"v1-rows", transport.ProtocolV1}, {"v2-columnar", transport.ProtocolV2}} {
		b.Run(proto.name, func(b *testing.B) {
			db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
			parts, err := quest.PartitionDatabase(db, 4)
			if err != nil {
				b.Fatal(err)
			}
			backends := make([]shard.Backend, len(parts))
			for i, p := range parts {
				c, err := transport.NewLoopbackClient(wrapper.NewFullAccessSource(p),
					transport.Options{Protocol: proto.ver})
				if err != nil {
					b.Fatal(err)
				}
				backends[i] = c
			}
			src := shard.NewFromBackends(db.Name, db.Schema, backends,
				shard.Options{AssumeHashRouting: true})
			defer src.Close()
			if _, err := src.Execute(stmt); err != nil { // warm shard plans
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := src.Execute(stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Concurrency and caching benchmarks (the perf-PR scorecard): warm vs cold
// query cache, sequential vs parallel backward fan-out, and whole-engine
// parallel throughput over a shared engine.

// benchQueries returns a deterministic workload of keyword strings.
func benchQueries(db *quest.Database, n int) []string {
	g := eval.NewGenerator(db, 7)
	w := g.Generate("imdb", eval.IMDBTemplates(), 3)
	out := make([]string, 0, n)
	for i := 0; len(out) < n; i++ {
		q := w.Queries[i%len(w.Queries)]
		out = append(out, strings.Join(q.Keywords, " "))
	}
	return out
}

func BenchmarkComponent_SearchColdCache(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.QueryCacheSize = -1     // every Search runs the full pipeline
	opts.Backward.CacheSize = -1 // ...including a real Steiner decode
	eng := quest.Open(db, opts)
	qs := benchQueries(db, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComponent_SearchWarmCache(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	qs := benchQueries(db, 8)
	for _, q := range qs { // warm the cache
		if _, err := eng.Search(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Search(qs[i%len(qs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_ParallelSearchThroughput drives one shared engine from
// GOMAXPROCS goroutines (b.RunParallel), the "heavy traffic" serving shape.
// The query mix cycles per goroutine so both cache hits and full pipeline
// runs occur.
func BenchmarkComponent_ParallelSearchThroughput(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	qs := benchQueries(db, 16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Search(qs[i%len(qs)]); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkComponent_ParallelSearchThroughputColdCache is the same shape
// with the query cache disabled: it isolates the concurrency win (shared
// engine, parallel pipelines) from the caching win.
func BenchmarkComponent_ParallelSearchThroughputColdCache(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 1})
	opts := quest.Defaults()
	opts.QueryCacheSize = -1
	opts.Backward.CacheSize = -1
	eng := quest.Open(db, opts)
	qs := benchQueries(db, 16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := eng.Search(qs[i%len(qs)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkComponent_Interpretations compares the sequential and parallel
// backward fan-out on identical configurations (Steiner memo disabled so
// each TopK really decodes).
func BenchmarkComponent_Interpretations(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	for _, par := range []int{1, 0} { // 0 = GOMAXPROCS
		name := "sequential"
		if par == 0 {
			name = "parallel"
		}
		b.Run(name, func(b *testing.B) {
			opts := quest.Defaults()
			opts.Parallelism = par
			opts.Backward.CacheSize = -1
			eng := quest.Open(db, opts)
			configs, err := eng.Configurations([]string{"italy", "city", "river"})
			if err != nil || len(configs) == 0 {
				b.Fatalf("no configurations: %v", err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Interpretations(configs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComponent_SteinerTopKMemoized measures the backward module's
// memo hit path (same terminal set decoded repeatedly).
func BenchmarkComponent_SteinerTopKMemoized(b *testing.B) {
	db := datasets.Mondial(datasets.Config{Seed: 42, Scale: 1})
	eng := engineFor(db)
	c := &core.Configuration{
		Keywords: []string{"a", "b", "c"},
		Terms: []core.Term{
			{Kind: core.KindDomain, Table: "city", Column: "name"},
			{Kind: core.KindDomain, Table: "river", Column: "name"},
			{Kind: core.KindDomain, Table: "organization", Column: "name"},
		},
	}
	if _, err := eng.Backward().TopK(c, 10); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Backward().TopK(c, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_Tokenize measures the zero-allocation tokenizer fast
// path on representative cell text.
func BenchmarkComponent_Tokenize(b *testing.B) {
	inputs := []string{
		"the dark night returns 2008",
		"alice kurosawa",
		"a fairly long movie title with many lowercase ascii tokens in it",
	}
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		fulltext.TokenizeEach(inputs[i%len(inputs)], func(string) { n++ })
	}
	_ = n
}

// ---------------------------------------------------------------------------
// Planner benchmarks (PR 2 scorecard): indexed selection and pushed-down
// joins vs the retained full-scan interpreter, and the existence-only
// validation path vs materializing execution as results grow.

func mustParseSQL(b *testing.B, src string) *sql.SelectStmt {
	b.Helper()
	stmt, err := quest.ParseSQL(src)
	if err != nil {
		b.Fatal(err)
	}
	return stmt
}

// BenchmarkComponent_SQLIndexedSelection: point equality on the primary
// key — the planner probes the hash index, the reference interprets the
// predicate over a full scan.
func BenchmarkComponent_SQLIndexedSelection(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE movie_id = 100")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_SQLJoinPushdown: a three-way join whose single-table
// MATCH predicate the planner evaluates below the joins, against the
// reference that joins everything first and filters last.
func BenchmarkComponent_SQLJoinPushdown(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	stmt := mustParseSQL(b, `SELECT DISTINCT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama'`)
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_PruneValidationExists is the PruneEmpty cost model:
// a validation query only needs to know whether any tuple survives. The
// existence path must stay flat as the instance (and the result) grows,
// while materializing execution scales with it.
func BenchmarkComponent_PruneValidationExists(b *testing.B) {
	const src = `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id`
	for _, scale := range []int{1, 4, 16} {
		db := datasets.IMDB(datasets.Config{Seed: 42, Scale: scale})
		stmt := mustParseSQL(b, src)
		b.Run(fmt.Sprintf("exists-scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ok, err := sql.Exists(db, stmt)
				if err != nil || !ok {
					b.Fatalf("exists = %v, %v", ok, err)
				}
			}
		})
		b.Run(fmt.Sprintf("materialize-scale%d", scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sql.Execute(db, stmt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkComponent_FulltextRows measures the sorted-merge posting
// intersection behind multi-token keyword→row mapping (zero map
// allocations; one slice for the result).
func BenchmarkComponent_FulltextRows(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 4})
	ix := fulltext.BuildIndex(db)
	ai := ix.Attribute("movie", "title")
	// Pick the two most frequent title tokens for a worst-case merge.
	terms := ai.Terms()
	if len(terms) < 2 {
		b.Fatal("tiny vocabulary")
	}
	best, second := "", ""
	bn, sn := 0, 0
	for _, t := range terms {
		n := len(ai.Rows(t))
		if n > bn {
			second, sn = best, bn
			best, bn = t, n
		} else if n > sn {
			second, sn = t, n
		}
	}
	kw := best + " " + second
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rows := ai.Rows(kw); len(rows) == 0 && i == 0 {
			b.Logf("empty intersection for %q", kw)
		}
	}
}

// ---------------------------------------------------------------------------
// Statistics/join-order benchmarks (PR 3 scorecard): the Selinger reorder
// on a skewed 3-way join, and the sorted-index / IN-union / MATCH-posting
// access paths vs the full-scan interpreter.

// BenchmarkComponent_SQLJoinReorder: fact table written first, selective
// predicate on the last dimension — the written order would join ~33k rows
// before filtering, the statistics-driven order starts from one person.
func BenchmarkComponent_SQLJoinReorder(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, `SELECT person.name, movie.title FROM cast_info
		JOIN movie ON movie.movie_id = cast_info.movie_id
		JOIN person ON person.person_id = cast_info.person_id
		WHERE person.person_id = 33`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sql.Execute(db, stmt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComponent_SQLRangeScan: BETWEEN through the sorted secondary
// index vs the interpreter's per-row comparison over a full scan.
func BenchmarkComponent_SQLRangeScan(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE production_year BETWEEN 1972 AND 1972")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_SQLInList: IN over PK literals served by unioned hash
// postings vs the interpreter's per-row list membership test.
func BenchmarkComponent_SQLInList(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE movie_id IN (100, 2000, 4000, 4400)")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_MatchPostings: `title MATCH 'kw'` through
// fulltext.AttributeIndex.Rows (scan only the posting rows) vs tokenizing
// every cell of a full scan.
func BenchmarkComponent_MatchPostings(b *testing.B) {
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 16})
	stmt := mustParseSQL(b, "SELECT title FROM movie WHERE title MATCH 'winter'")
	b.Run("planned", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.Execute(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sql.ExecuteFullScan(db, stmt); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkComponent_MixedReadWrite: the write-then-read unit of the
// mixed read/write hot path, without the serving tier — one insert into
// movie followed by a range read whose plan must re-consult that table's
// statistics and whose scan must see the new row in the sorted index. The
// insert folds into the statistics delta and the index side-run.
func BenchmarkComponent_MixedReadWrite(b *testing.B) {
	read := mustParseSQL(b, "SELECT COUNT(*) AS n FROM movie WHERE production_year >= 1980 AND rating >= 5.0")
	db := datasets.IMDB(datasets.Config{Seed: 42, Scale: 20})
	src := wrapper.NewFullAccessSource(db)
	if _, err := src.Execute(read); err != nil { // warm stats and indexes
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := int64(1_000_000 + i)
		row := quest.Row{
			relational.Int(id),
			relational.String_(fmt.Sprintf("Benchmark Movie %d", id)),
			relational.Int(1960 + id%60),
			relational.String_("drama"),
			relational.Float(5.0),
		}
		if err := src.Insert("movie", row); err != nil {
			b.Fatal(err)
		}
		if _, err := src.Execute(read); err != nil {
			b.Fatal(err)
		}
	}
}
