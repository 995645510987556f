// Command questbench runs the full experiment suite (E1–E8 of DESIGN.md §3
// plus the E9 executor/planner scorecard, the E10 statistics access-path
// scorecard, the E11 sharded-execution scorecard, the E12 remote
// transport / hedged-read scorecard, the E13 streaming/columnar
// scorecard, the E14 replication/failover scorecard, the E15 shard
// durability scorecard and the E16 serving-tier overload scorecard) and
// prints the tables recorded in EXPERIMENTS.md.
// Each experiment is a deterministic function of the seed, so re-running
// reproduces the report.
//
// With -json the same tables are also written as a machine-readable
// BENCH_*.json snapshot (one object per table: title, headers, rows, plus
// run metadata), so successive PRs can diff the perf/quality trajectory
// mechanically instead of parsing report text.
//
// Usage:
//
//	questbench [-exp all|e1..e16] [-seed N] [-n N] [-json BENCH_42.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	quest "repro"
	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fulltext"
	"repro/internal/relational"
	shardpkg "repro/internal/shard"
	sqlpkg "repro/internal/sql"
	"repro/internal/transport"
	"repro/internal/wrapper"
)

var (
	seed     = flag.Int64("seed", 42, "dataset and workload seed")
	nPer     = flag.Int("n", 4, "queries per workload template")
	jsonPath = flag.String("json", "", "write a machine-readable BENCH_*.json snapshot to this path")
)

// snapshotTable is the JSON form of one experiment table.
type snapshotTable struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// snapshot is the whole BENCH_*.json payload. It deliberately carries no
// timestamp: apart from the latency columns (real measurements that vary
// run to run), every field is a deterministic function of seed and code,
// so a diff between two snapshots shows only behavior changes and timing
// movement — never clock noise from the file itself.
type snapshot struct {
	Tool       string          `json:"tool"`
	Seed       int64           `json:"seed"`
	QueriesPer int             `json:"queries_per_template"`
	Tables     []snapshotTable `json:"tables"`
}

var collected []snapshotTable

// emit prints a table and records it for the JSON snapshot.
func emit(tbl *eval.Table) {
	fmt.Println(tbl)
	collected = append(collected, snapshotTable{Title: tbl.Title, Headers: tbl.Headers, Rows: tbl.Rows})
}

func writeSnapshot(path string) {
	s := snapshot{
		Tool:       "questbench",
		Seed:       *seed,
		QueriesPer: *nPer,
		Tables:     collected,
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "marshal snapshot: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "write snapshot: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d tables)\n", path, len(s.Tables))
}

func main() {
	exp := flag.String("exp", "all", "experiment to run (all, e1..e16)")
	flag.Parse()

	runners := map[string]func(){
		"e1":  e1Scalability,
		"e2":  e2Disagreement,
		"e3":  e3Baselines,
		"e4":  e4Uncertainty,
		"e5":  e5FeedbackVolume,
		"e6":  e6DeepWeb,
		"e7":  e7Visualization,
		"e8":  e8Ablations,
		"e9":  e9Planner,
		"e10": e10Statistics,
		"e11": e11Sharded,
		"e12": e12Remote,
		"e13": e13Streaming,
		"e14": e14Failover,
		"e15": e15Durability,
		"e16": e16Serving,
	}
	if *exp == "all" {
		for _, name := range []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15", "e16"} {
			runners[name]()
		}
	} else {
		r, ok := runners[strings.ToLower(*exp)]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		r()
	}
	if *jsonPath != "" {
		writeSnapshot(*jsonPath)
	}
}

func buildAll() map[string]*quest.Database {
	cfg := quest.DatasetConfig{Seed: *seed, Scale: 1}
	return map[string]*quest.Database{
		"imdb":    quest.BuildIMDB(cfg),
		"mondial": quest.BuildMondial(cfg),
		"dblp":    quest.BuildDBLP(cfg),
	}
}

func workloadFor(db *quest.Database, name string) *eval.Workload {
	return eval.NewGenerator(db, *seed+100).Generate(name, eval.TemplatesFor(name), *nPer)
}

// e1Scalability: end-to-end latency and graph sizes vs instance scale.
func e1Scalability() {
	tbl := &eval.Table{
		Title:   "E1 — scalability: latency and graph sizes vs IMDB instance size (demo msg 1)",
		Headers: []string{"scale", "tuples", "schema-nodes", "schema-edges", "data-nodes", "data-edges", "avg-search-ms", "S@3"},
	}
	for _, scale := range []int{1, 2, 4, 8, 16} {
		db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: scale})
		eng := quest.Open(db, quest.Defaults())
		dg, err := baseline.NewDataGraph(db)
		if err != nil {
			panic(err)
		}
		w := eval.NewGenerator(db, *seed+100).Generate("imdb", eval.IMDBTemplates()[:3], *nPer)
		start := time.Now()
		js := eval.RunEngine(eng, w)
		elapsed := time.Since(start)
		m := eval.Aggregate(js)
		g := eng.Backward().Graph()
		tbl.AddRow(
			fmt.Sprint(scale),
			fmt.Sprint(db.TotalRows()),
			fmt.Sprint(g.Len()),
			fmt.Sprint(g.EdgeCount()),
			fmt.Sprint(dg.NodeCount()),
			fmt.Sprint(dg.EdgeCount()),
			fmt.Sprintf("%.1f", float64(elapsed.Milliseconds())/float64(len(w.Queries))),
			eval.F(m.SuccessAt3),
		)
	}
	emit(tbl)
}

// e2Disagreement: rank overlap between operating modes and approaches.
func e2Disagreement() {
	tbl := &eval.Table{
		Title:   "E2 — module disagreement on identical queries (demo msg 2)",
		Headers: []string{"dataset", "pair", "top1-agreement", "jaccard@10"},
	}
	for _, name := range []string{"imdb", "mondial", "dblp"} {
		db := buildAll()[name]
		eng := quest.Open(db, quest.Defaults())
		w := workloadFor(db, name)
		train, test := eval.Split(w)
		eng.AddFeedback(eval.FeedbackFor(train, len(train.Queries)))

		agreeAF, jacAF, n := 0.0, 0.0, 0
		agreeAC, jacAC := 0.0, 0.0
		for _, q := range test.Queries {
			ap := eng.Forward().TopKApriori(q.Keywords, 10)
			fb := eng.Forward().TopKFeedback(q.Keywords, 10)
			comb, err := eng.Configurations(q.Keywords)
			if err != nil || len(ap) == 0 || len(fb) == 0 || len(comb) == 0 {
				continue
			}
			n++
			if ap[0].ID() == fb[0].ID() {
				agreeAF++
			}
			if ap[0].ID() == comb[0].ID() {
				agreeAC++
			}
			jacAF += jaccard(ids(ap), ids(fb))
			jacAC += jaccard(ids(ap), ids(comb))
		}
		if n == 0 {
			continue
		}
		tbl.AddRow(name, "apriori-vs-feedback",
			eval.F(agreeAF/float64(n)), eval.F(jacAF/float64(n)))
		tbl.AddRow(name, "apriori-vs-combined",
			eval.F(agreeAC/float64(n)), eval.F(jacAC/float64(n)))
	}
	emit(tbl)
}

func ids(cs []*core.Configuration) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		out[i] = c.ID()
	}
	return out
}

func jaccard(a, b []string) float64 {
	set := map[string]bool{}
	for _, x := range a {
		set[x] = true
	}
	inter, union := 0, len(set)
	for _, x := range b {
		if set[x] {
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

// e3Baselines: QUEST vs BANKS-style vs DISCOVER-style on all datasets.
func e3Baselines() {
	tbl := &eval.Table{
		Title:   "E3 — QUEST (schema Steiner) vs instance-level baselines (demo msg 3)",
		Headers: []string{"dataset", "system", "S@1", "S@3", "MRR", "avg-ms", "graph-nodes"},
	}
	for _, name := range []string{"imdb", "mondial", "dblp"} {
		db := buildAll()[name]
		w := workloadFor(db, name)

		// QUEST.
		eng := quest.Open(db, quest.Defaults())
		start := time.Now()
		js := eval.RunEngine(eng, w)
		qms := float64(time.Since(start).Milliseconds()) / float64(len(w.Queries))
		m := eval.Aggregate(js)
		tbl.AddRow(name, "QUEST", eval.F(m.SuccessAt1), eval.F(m.SuccessAt3), eval.F(m.MRR),
			fmt.Sprintf("%.1f", qms), fmt.Sprint(eng.Backward().Graph().Len()))

		// BANKS-style.
		dg, err := baseline.NewDataGraph(db)
		if err != nil {
			panic(err)
		}
		ix := fulltext.BuildIndex(db)
		start = time.Now()
		var bjs []eval.Judgement
		for _, q := range w.Queries {
			answers, err := dg.Search(ix, q.Keywords, 10)
			if err != nil {
				bjs = append(bjs, eval.Judgement{Query: q})
				continue
			}
			sets := make([][]string, len(answers))
			for i, a := range answers {
				sets[i] = a.Tables()
			}
			bjs = append(bjs, eval.JudgeTables(q, sets))
		}
		bms := float64(time.Since(start).Milliseconds()) / float64(len(w.Queries))
		m = eval.Aggregate(bjs)
		tbl.AddRow(name, "BANKS-style", eval.F(m.SuccessAt1), eval.F(m.SuccessAt3), eval.F(m.MRR),
			fmt.Sprintf("%.1f", bms), fmt.Sprint(dg.NodeCount()))

		// DISCOVER-style.
		d := baseline.NewDiscover(db, ix)
		start = time.Now()
		var djs []eval.Judgement
		for _, q := range w.Queries {
			cns, err := d.TopK(q.Keywords, 10, 5)
			if err != nil {
				djs = append(djs, eval.Judgement{Query: q})
				continue
			}
			sets := make([][]string, len(cns))
			for i, cn := range cns {
				sets[i] = cn.Tables
			}
			djs = append(djs, eval.JudgeTables(q, sets))
		}
		dms := float64(time.Since(start).Milliseconds()) / float64(len(w.Queries))
		m = eval.Aggregate(djs)
		tbl.AddRow(name, "DISCOVER-style", eval.F(m.SuccessAt1), eval.F(m.SuccessAt3), eval.F(m.MRR),
			fmt.Sprintf("%.1f", dms), "-")
	}
	emit(tbl)
}

// e4Uncertainty: grid sweep over (OCap, OCf) and (OC, OI).
func e4Uncertainty() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1})
	w := workloadFor(db, "imdb")
	train, test := eval.Split(w)

	tbl := &eval.Table{
		Title:   "E4a — forward-mode uncertainty sweep (OCap vs OCf), cold and warm (demo msg 4)",
		Headers: []string{"OCap", "OCf", "feedback-queries", "cfg@1", "cfgMRR", "MRR"},
	}
	for _, nfb := range []int{0, len(train.Queries)} {
		for _, p := range [][2]float64{{0.1, 0.9}, {0.3, 0.7}, {0.5, 0.5}, {0.7, 0.3}, {0.9, 0.1}} {
			opts := quest.Defaults()
			opts.Uncertainty.OCap = p[0]
			opts.Uncertainty.OCf = p[1]
			eng := quest.Open(db, opts)
			if nfb > 0 {
				eng.AddFeedback(eval.FeedbackFor(train, nfb))
			}
			m := eval.Aggregate(eval.RunEngine(eng, test))
			tbl.AddRow(eval.F(p[0]), eval.F(p[1]), fmt.Sprint(nfb),
				eval.F(m.ConfigAt1), eval.F(m.ConfigMRR), eval.F(m.MRR))
		}
	}
	emit(tbl)

	tbl2 := &eval.Table{
		Title:   "E4b — forward/backward uncertainty sweep (OC vs OI)",
		Headers: []string{"OC", "OI", "S@1", "S@3", "MRR"},
	}
	for _, p := range [][2]float64{{0.05, 0.9}, {0.3, 0.6}, {0.3, 0.3}, {0.6, 0.3}, {0.9, 0.05}} {
		opts := quest.Defaults()
		opts.Uncertainty.OC = p[0]
		opts.Uncertainty.OI = p[1]
		eng := quest.Open(db, opts)
		m := eval.Aggregate(eval.RunEngine(eng, test))
		tbl2.AddRow(eval.F(p[0]), eval.F(p[1]), eval.F(m.SuccessAt1), eval.F(m.SuccessAt3), eval.F(m.MRR))
	}
	emit(tbl2)
}

// e5FeedbackVolume: accuracy vs number of validated searches.
func e5FeedbackVolume() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1})
	w := eval.NewGenerator(db, *seed+100).Generate("imdb", eval.IMDBTemplates(), *nPer+4)
	train, test := eval.Split(w)

	tbl := &eval.Table{
		Title:   "E5 — accuracy vs training volume: a-priori / feedback / DS-combined (§1 claim)",
		Headers: []string{"mode", "feedback-queries", "cfg@1", "cfgMRR", "MRR"},
	}
	volumes := []int{0, 2, 4, 8, len(train.Queries)}
	for _, mode := range []string{"apriori", "feedback", "combined", "combined-adaptive"} {
		for _, nfb := range volumes {
			if mode == "apriori" && nfb != 0 {
				continue
			}
			opts := quest.Defaults()
			switch mode {
			case "apriori":
				opts.DisableFeedback = true
			case "feedback":
				opts.DisableApriori = true
			}
			eng := quest.Open(db, opts)
			if mode == "combined-adaptive" {
				eng.AutoAdapt(true)
			}
			if nfb > 0 {
				eng.AddFeedback(eval.FeedbackFor(train, nfb))
			}
			m := eval.Aggregate(eval.RunEngine(eng, test))
			tbl.AddRow(mode, fmt.Sprint(nfb), eval.F(m.ConfigAt1), eval.F(m.ConfigMRR), eval.F(m.MRR))
		}
	}
	emit(tbl)
}

// e6DeepWeb: metadata-only wrapper vs full access on identical workloads.
func e6DeepWeb() {
	tbl := &eval.Table{
		Title:   "E6 — hidden source (metadata wrapper) vs full access",
		Headers: []string{"dataset", "access", "S@1", "S@3", "MRR"},
	}
	for _, name := range []string{"imdb", "mondial", "dblp"} {
		db := buildAll()[name]
		w := workloadFor(db, name)

		eng := quest.Open(db, quest.Defaults())
		m := eval.Aggregate(eval.RunEngine(eng, w))
		tbl.AddRow(name, "full", eval.F(m.SuccessAt1), eval.F(m.SuccessAt3), eval.F(m.MRR))

		opts := quest.Defaults()
		opts.UseLike = true
		hidden := quest.OpenHidden(db, quest.DefaultThesaurus(), opts)
		m = eval.Aggregate(eval.RunEngine(hidden, w))
		tbl.AddRow(name, "metadata-only", eval.F(m.SuccessAt1), eval.F(m.SuccessAt3), eval.F(m.MRR))
	}
	emit(tbl)
}

// e7Visualization: demonstrate the result-graph rendering (demo msg 5).
func e7Visualization() {
	fmt.Println("== E7 — coupled tuple list + database-portion graph (demo msg 5) ==")
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1})
	eng := quest.Open(db, quest.Defaults())
	results, err := eng.Search("spielberg drama")
	if err != nil || len(results) == 0 {
		fmt.Println("no results to visualize")
		return
	}
	var joined *quest.Explanation
	for _, ex := range results {
		if len(ex.Interpretation.Tables()) >= 3 {
			joined = ex
			break
		}
	}
	if joined == nil {
		joined = results[0]
	}
	fmt.Printf("query: \"spielberg drama\"  belief=%.4f\nsql: %s\n\n", joined.Belief, joined.SQL)
	res, err := eng.Execute(joined)
	if err == nil {
		max := 5
		if len(res.Rows) < max {
			max = len(res.Rows)
		}
		fmt.Println(&quest.Result{Columns: res.Columns, Rows: res.Rows[:max]})
	}
	fmt.Println(quest.RenderExplanation(joined))
}

// e8Ablations: Steiner pruning on/off and MI weights on/off.
func e8Ablations() {
	tbl := &eval.Table{
		Title:   "E8a — Steiner sub-tree pruning ablation (mondial, 3-keyword query)",
		Headers: []string{"dedup", "explanations", "distinct-table-sets", "avg-ms"},
	}
	db := quest.BuildMondial(quest.DatasetConfig{Seed: *seed, Scale: 1})
	for _, dedup := range []bool{true, false} {
		opts := quest.Defaults()
		opts.Backward.Dedup = dedup
		eng := quest.Open(db, opts)
		start := time.Now()
		const reps = 5
		var ex []*quest.Explanation
		var err error
		for i := 0; i < reps; i++ {
			ex, err = eng.Search("italy city river")
			if err != nil {
				panic(err)
			}
		}
		ms := float64(time.Since(start).Milliseconds()) / reps
		sets := map[string]bool{}
		for _, e := range ex {
			sets[strings.Join(e.Interpretation.Tables(), "+")] = true
		}
		tbl.AddRow(fmt.Sprint(dedup), fmt.Sprint(len(ex)), fmt.Sprint(len(sets)), fmt.Sprintf("%.1f", ms))
	}
	emit(tbl)

	tbl2 := &eval.Table{
		Title:   "E8b — MI edge-weight ablation (imdb; award is the sparse decoy join path)",
		Headers: []string{"mi-weights", "S@3", "MRR", "empty-top1-rate"},
	}
	imdb := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1})
	w := eval.NewGenerator(imdb, *seed+100).Generate("imdb", eval.IMDBTemplates(), *nPer)
	for _, mi := range []bool{true, false} {
		opts := quest.Defaults()
		opts.Backward.UseMIWeights = mi
		eng := quest.Open(imdb, opts)
		m := eval.Aggregate(eval.RunEngine(eng, w))
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
		rate := 0.0
		if n > 0 {
			rate = float64(empty) / float64(n)
		}
		tbl2.AddRow(fmt.Sprint(mi), eval.F(m.SuccessAt3), eval.F(m.MRR), eval.F(rate))
	}
	emit(tbl2)

	// A-priori heuristic weight ablation: flatten the transition rules.
	// The probe queries anchor on the attribute keyword "title" followed by
	// a token that occurs BOTH inside movie titles and inside person names
	// (the generators plant surnames in titles for exactly this reason).
	// The intended reading is "title <token>" = a movie whose title
	// contains the token; the attribute→own-domain transition rule is what
	// encodes that reading, so uniform transitions should lose it whenever
	// the token's emission is stronger on person.name.
	ix := fulltext.BuildIndex(imdb)
	titleIdx := ix.Attribute("movie", "title")
	nameIdx := ix.Attribute("person", "name")
	wProbe := &eval.Workload{Name: "imdb-ambiguous-probe"}
	for _, tok := range titleIdx.Terms() {
		if len(wProbe.Queries) >= 12 {
			break
		}
		if len(tok) < 3 || len(titleIdx.Rows(tok)) == 0 || len(nameIdx.Rows(tok)) == 0 {
			continue
		}
		kws := []string{"title", tok}
		wProbe.Queries = append(wProbe.Queries, &eval.Query{
			Keywords: kws,
			GoldConfig: &core.Configuration{
				Keywords: kws,
				Terms: []core.Term{
					{Kind: core.KindAttribute, Table: "movie", Column: "title"},
					{Kind: core.KindDomain, Table: "movie", Column: "title"},
				},
			},
			GoldTables: []string{"movie"},
			Label:      "title-anchored-ambiguous",
		})
	}
	tbl3 := &eval.Table{
		Title:   "E8c — a-priori heuristic-rule ablation (imdb, title-anchored ambiguous tokens)",
		Headers: []string{"transitions", "cfg@1", "cfgMRR"},
	}
	for _, flat := range []bool{false, true} {
		opts := quest.Defaults()
		opts.DisableFeedback = true
		eng := quest.Open(imdb, opts)
		if flat {
			eng.Forward().SetAprioriWeights(core.AprioriWeights{
				AttrToOwnDomain: 1, SameTable: 1, FKAdjacent: 1, Generalization: 1, Base: 1,
			})
		}
		// Judge the forward module directly: rank of the gold configuration
		// among the decoded configurations (isolated from the backward
		// module and the DS combination).
		at1, mrr, n := 0.0, 0.0, 0
		for _, q := range wProbe.Queries {
			configs, err := eng.Configurations(q.Keywords)
			if err != nil || len(configs) == 0 {
				continue
			}
			n++
			for rank, c := range configs {
				if c.ID() == q.GoldConfig.ID() {
					if rank == 0 {
						at1++
					}
					mrr += 1 / float64(rank+1)
					break
				}
			}
		}
		if n > 0 {
			at1 /= float64(n)
			mrr /= float64(n)
		}
		label := "heuristic-rules"
		if flat {
			label = "uniform"
		}
		tbl3.AddRow(label, eval.F(at1), eval.F(mrr))
	}
	emit(tbl3)
}

// timeQuery runs run reps times and returns the mean wall time per call in
// whole-microsecond resolution; an error from run panics.
func timeQuery(run func() error, reps int) float64 {
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := run(); err != nil {
			panic(err)
		}
	}
	return float64(time.Since(start).Microseconds()) / float64(reps)
}

// e9Planner: the PR 2 executor scorecard. One table times indexed
// selection and pushed-down joins against the retained full-scan
// interpreter; a second shows that existence-only validation (the
// PruneEmpty path) stays near-flat while materializing execution scales
// with the instance.
func e9Planner() {
	tbl := &eval.Table{
		Title:   "E9a — planner vs full-scan interpreter (imdb)",
		Headers: []string{"query", "scale", "planned-us", "full-scan-us", "speedup", "access"},
	}
	cases := []struct {
		name, src string
		scale     int
		reps      int
	}{
		{"pk-point", "SELECT title FROM movie WHERE movie_id = 100", 16, 50},
		{"fk-equality", "SELECT cast_id FROM cast_info WHERE movie_id = 100", 16, 50},
		{"pushdown-join", `SELECT DISTINCT person.name, movie.title FROM person
			JOIN cast_info ON cast_info.person_id = person.person_id
			JOIN movie ON movie.movie_id = cast_info.movie_id
			WHERE movie.genre MATCH 'drama'`, 4, 10},
	}
	for _, c := range cases {
		db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: c.scale})
		stmt, err := quest.ParseSQL(c.src)
		if err != nil {
			panic(err)
		}
		// Warm the plan cache and lazy indexes so the steady state is measured.
		if _, err := sqlpkg.Execute(db, stmt); err != nil {
			panic(err)
		}
		planned := timeQuery(func() error { _, err := sqlpkg.Execute(db, stmt); return err }, c.reps)
		full := timeQuery(func() error { _, err := sqlpkg.ExecuteFullScan(db, stmt); return err }, c.reps)
		qp, err := sqlpkg.Plan(db, stmt)
		if err != nil {
			panic(err)
		}
		tbl.AddRow(c.name, fmt.Sprint(c.scale),
			fmt.Sprintf("%.1f", planned), fmt.Sprintf("%.1f", full),
			fmt.Sprintf("%.1fx", full/planned), qp.Scans[len(qp.Scans)-1].Access)
	}
	emit(tbl)

	tbl2 := &eval.Table{
		Title:   "E9b — existence-only validation (PruneEmpty path) vs materializing execution",
		Headers: []string{"scale", "result-rows", "exists-us", "materialize-us", "speedup"},
	}
	const joinAll = `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id`
	for _, scale := range []int{1, 4, 16} {
		db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: scale})
		stmt, err := quest.ParseSQL(joinAll)
		if err != nil {
			panic(err)
		}
		res, err := sqlpkg.Execute(db, stmt)
		if err != nil {
			panic(err)
		}
		reps := 10
		ex := timeQuery(func() error { _, err := sqlpkg.Exists(db, stmt); return err }, reps)
		mat := timeQuery(func() error { _, err := sqlpkg.Execute(db, stmt); return err }, reps)
		tbl2.AddRow(fmt.Sprint(scale), fmt.Sprint(len(res.Rows)),
			fmt.Sprintf("%.1f", ex), fmt.Sprintf("%.1f", mat), fmt.Sprintf("%.1fx", mat/ex))
	}
	emit(tbl2)
}

// e10Statistics: the PR 3 statistics scorecard. Range/IN/MATCH
// predicates are timed through their index access paths vs the full-scan
// interpreter. Every pairing is also checked for identical row counts, so
// the table doubles as an equivalence smoke test.
func e10Statistics() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 16})

	tbl := &eval.Table{
		Title:   "E10 — statistics-driven access paths vs full-scan baseline (imdb scale 16)",
		Headers: []string{"case", "rows", "stats-us", "baseline-us", "speedup", "plan"},
	}

	// Index access paths vs the retained full-scan interpreter.
	for _, c := range []struct {
		name, src string
		reps      int
	}{
		{"range-scan (BETWEEN)", "SELECT title FROM movie WHERE production_year BETWEEN 1972 AND 1972", 50},
		{"in-list (unioned postings)", "SELECT title FROM movie WHERE movie_id IN (100, 2000, 4000, 4400)", 50},
		{"match-postings", "SELECT title FROM movie WHERE title MATCH 'winter'", 50},
	} {
		stmt, err := quest.ParseSQL(c.src)
		if err != nil {
			panic(err)
		}
		res, err := sqlpkg.Execute(db, stmt) // warm plan, stats, indexes
		if err != nil {
			panic(err)
		}
		ref, err := sqlpkg.ExecuteFullScan(db, stmt)
		if err != nil {
			panic(err)
		}
		if len(ref.Rows) != len(res.Rows) {
			panic(fmt.Sprintf("E10 row divergence for %s: planned %d vs reference %d", c.name, len(res.Rows), len(ref.Rows)))
		}
		planned := timeQuery(func() error { _, err := sqlpkg.Execute(db, stmt); return err }, c.reps)
		full := timeQuery(func() error { _, err := sqlpkg.ExecuteFullScan(db, stmt); return err }, c.reps)
		qp, err := sqlpkg.Plan(db, stmt)
		if err != nil {
			panic(err)
		}
		tbl.AddRow(c.name, fmt.Sprint(len(res.Rows)),
			fmt.Sprintf("%.1f", planned), fmt.Sprintf("%.1f", full),
			fmt.Sprintf("%.1fx", full/planned), qp.Scans[0].Access)
	}
	emit(tbl)
}

// e11Sharded: the PR 4 sharded-execution scorecard. E11a runs a join
// workload — the PruneEmpty validation shape — through ShardedSource at
// increasing shard counts with predicates pushed down to the shards: the
// rows-shipped column is the bandwidth story, the latency columns the
// wall-clock one, and the exists column shows validation scaling with
// shard parallelism. E11b shows PK partition pruning: a point lookup
// touches exactly one shard no matter how many exist.
func e11Sharded() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 8})

	const joinQ = `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama' AND cast_info.role = 'director'`
	stmt, err := quest.ParseSQL(joinQ)
	if err != nil {
		panic(err)
	}
	tbl := &eval.Table{
		Title:   "E11a — sharded join workload with predicate pushdown (imdb scale 8)",
		Headers: []string{"shards", "rows", "exec-us", "exists-us", "rows-shipped"},
	}
	var refRows int
	for _, n := range []int{1, 2, 4, 8} {
		parts, err := shardpkg.Partition(db, n)
		if err != nil {
			panic(err)
		}
		src, err := shardpkg.New(db.Name, parts, shardpkg.Options{})
		if err != nil {
			panic(err)
		}
		res, err := src.Execute(stmt) // warm shard plans and indexes
		if err != nil {
			panic(err)
		}
		if refRows == 0 {
			refRows = len(res.Rows)
		}
		if len(res.Rows) != refRows {
			panic(fmt.Sprintf("E11 row divergence at %d shards: %d vs %d", n, len(res.Rows), refRows))
		}
		reps := 5
		exec := timeQuery(func() error { _, err := src.Execute(stmt); return err }, reps)
		exists := timeQuery(func() error { _, err := src.ExecuteExists(stmt); return err }, reps)
		src.ResetStats()
		if _, err := src.Execute(stmt); err != nil {
			panic(err)
		}
		tbl.AddRow(fmt.Sprint(n), fmt.Sprint(refRows),
			fmt.Sprintf("%.1f", exec), fmt.Sprintf("%.1f", exists),
			fmt.Sprint(src.Stats().RowsShipped))
	}
	emit(tbl)

	tbl2 := &eval.Table{
		Title:   "E11b — PK partition pruning: point lookups touch one shard",
		Headers: []string{"shards", "fragment-queries", "pruned-probes", "point-us"},
	}
	point, err := quest.ParseSQL("SELECT title FROM movie WHERE movie_id = 100")
	if err != nil {
		panic(err)
	}
	for _, n := range []int{1, 4, 8} {
		parts, err := shardpkg.Partition(db, n)
		if err != nil {
			panic(err)
		}
		src, err := shardpkg.New(db.Name, parts, shardpkg.Options{})
		if err != nil {
			panic(err)
		}
		if _, err := src.Execute(point); err != nil { // warm
			panic(err)
		}
		us := timeQuery(func() error { _, err := src.Execute(point); return err }, 50)
		src.ResetStats()
		if _, err := src.Execute(point); err != nil {
			panic(err)
		}
		st := src.Stats()
		tbl2.AddRow(fmt.Sprint(n), fmt.Sprint(st.FragmentQueries),
			fmt.Sprint(st.PrunedProbes), fmt.Sprintf("%.1f", us))
	}
	emit(tbl2)
}

// flakyBackend injects server-side latency on every Nth Execute — the
// slow-shard model behind E12b's tail-latency measurement.
type flakyBackend struct {
	wrapper.SourceExecutor
	n     atomic.Uint64
	every uint64
	delay time.Duration
}

func (b *flakyBackend) Execute(stmt *sqlpkg.SelectStmt) (*sqlpkg.Result, error) {
	if b.n.Add(1)%b.every == 0 {
		time.Sleep(b.delay)
	}
	return b.SourceExecutor.Execute(stmt)
}

// e12Remote: the PR 5 network-transport scorecard. E12a reruns the E11
// join workload plus a grouped aggregate with every shard behind the wire
// protocol (loopback transport: frames, row codec, pooled connections) —
// the delta against the in-process rows is the transport tax, and the
// agg-rows-shipped column shows partial-aggregate pushdown collapsing the
// aggregate's gather bandwidth. E12b runs a point-lookup workload against
// a fleet whose primary replicas stall every 25th execution by 8ms:
// hedged reads race the clean replica after the adaptive latency quantile
// and cut the p99 while leaving the p50 alone, with zero goroutines
// leaked once the sources close.
func e12Remote() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 8})

	const joinQ = `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama' AND cast_info.role = 'director'`
	const aggQ = `SELECT genre, COUNT(*), MIN(production_year), MAX(production_year)
		FROM movie GROUP BY genre`
	joinStmt, err := quest.ParseSQL(joinQ)
	if err != nil {
		panic(err)
	}
	aggStmt, err := quest.ParseSQL(aggQ)
	if err != nil {
		panic(err)
	}

	tbl := &eval.Table{
		Title:   "E12a — remote vs in-process pushdown (loopback wire protocol, imdb scale 8)",
		Headers: []string{"shards", "mode", "join-us", "agg-us", "agg-rows-shipped", "agg-partials"},
	}
	for _, n := range []int{4, 8} {
		type mode struct {
			name string
			src  *shardpkg.ShardedSource
		}
		parts, err := shardpkg.Partition(db, n)
		if err != nil {
			panic(err)
		}
		local, err := shardpkg.New(db.Name, parts, shardpkg.Options{})
		if err != nil {
			panic(err)
		}
		rparts, err := shardpkg.Partition(db, n)
		if err != nil {
			panic(err)
		}
		backends := make([]shardpkg.Backend, n)
		for i, p := range rparts {
			c, err := transport.NewLoopbackClient(wrapper.NewFullAccessSource(p), transport.Options{})
			if err != nil {
				panic(err)
			}
			backends[i] = c
		}
		remote := shardpkg.NewFromBackends(db.Name, db.Schema, backends,
			shardpkg.Options{AssumeHashRouting: true})
		for _, m := range []mode{{"in-process", local}, {"remote", remote}} {
			if _, err := m.src.Execute(joinStmt); err != nil { // warm shard plans
				panic(err)
			}
			joinUs := timeQuery(func() error { _, err := m.src.Execute(joinStmt); return err }, 5)
			aggUs := timeQuery(func() error { _, err := m.src.Execute(aggStmt); return err }, 10)
			m.src.ResetStats()
			if _, err := m.src.Execute(aggStmt); err != nil {
				panic(err)
			}
			st := m.src.Stats()
			tbl.AddRow(fmt.Sprint(n), m.name,
				fmt.Sprintf("%.1f", joinUs), fmt.Sprintf("%.1f", aggUs),
				fmt.Sprint(st.RowsShipped), fmt.Sprint(st.AggPushdownQueries))
		}
		remote.Close()
	}
	emit(tbl)

	// E12b: hedged vs unhedged tail latency against flaky primaries.
	tbl2 := &eval.Table{
		Title:   "E12b — hedged reads vs slow shard: point-lookup tail latency (8ms stall every 25th primary execute)",
		Headers: []string{"mode", "queries", "p50-us", "p99-us", "hedges", "hedge-wins", "retries", "leaked-goroutines"},
	}
	const (
		shards  = 4
		queries = 10000
	)
	points := make([]*sqlpkg.SelectStmt, 16)
	for i := range points {
		stmt, err := quest.ParseSQL(fmt.Sprintf("SELECT title FROM movie WHERE movie_id = %d", 50+i*37))
		if err != nil {
			panic(err)
		}
		points[i] = stmt
	}
	for _, hedge := range []bool{false, true} {
		name := "unhedged"
		if hedge {
			name = "hedged"
		}
		baseline := runtime.NumGoroutine()
		parts, err := shardpkg.Partition(db, shards)
		if err != nil {
			panic(err)
		}
		clients := make([]*transport.Client, shards)
		backends := make([]shardpkg.Backend, shards)
		for i, p := range parts {
			src := wrapper.NewFullAccessSource(p)
			primary := transport.NewServer(&flakyBackend{
				SourceExecutor: src, every: 25, delay: 8 * time.Millisecond,
			})
			replica := transport.NewServer(src)
			c, err := transport.NewClient(
				[]transport.Dialer{transport.LoopbackDialer(primary), transport.LoopbackDialer(replica)},
				transport.Options{Hedge: hedge},
			)
			if err != nil {
				panic(err)
			}
			clients[i] = c
			backends[i] = c
		}
		fleet := shardpkg.NewFromBackends(db.Name, db.Schema, backends,
			shardpkg.Options{AssumeHashRouting: true})
		if _, err := fleet.Execute(points[0]); err != nil { // warm
			panic(err)
		}
		lat := make([]time.Duration, 0, queries)
		for i := 0; i < queries; i++ {
			start := time.Now()
			if _, err := fleet.Execute(points[i%len(points)]); err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(start))
		}
		var st transport.ClientStats
		for _, c := range clients {
			s := c.Stats()
			st.Hedges += s.Hedges
			st.HedgeWins += s.HedgeWins
			st.Retries += s.Retries
		}
		fleet.Close()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		leaked := runtime.NumGoroutine() - baseline
		if leaked < 0 {
			leaked = 0
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(q float64) float64 {
			i := int(q * float64(len(lat)))
			if i >= len(lat) {
				i = len(lat) - 1
			}
			return float64(lat[i].Microseconds())
		}
		tbl2.AddRow(name, fmt.Sprint(queries),
			fmt.Sprintf("%.0f", pct(0.50)), fmt.Sprintf("%.0f", pct(0.99)),
			fmt.Sprint(st.Hedges), fmt.Sprint(st.HedgeWins), fmt.Sprint(st.Retries),
			fmt.Sprint(leaked))
	}
	emit(tbl2)
}

// materializedBackend hides a backend's streaming face so the transport
// server falls back to Execute — the "old server" shape E13b compares the
// streaming sink against.
type materializedBackend struct {
	wrapper.SourceExecutor
}

// e13Streaming: the PR 6 streaming/columnar scorecard. E13a reruns the
// E11-style join workload plus a no-LIMIT full-table scan with every
// shard behind the wire, once pinned to protocol v1 (plain row frames)
// and once at v2 (columnar frames with dictionary/RLE encodings chosen
// from column statistics): identical rows either way, fewer bytes on the
// wire under v2. E13b sends the full-table fragment through a streaming
// server and an Execute-only server and reports each side's buffer
// high-water mark — the streaming sink holds at most one batch no matter
// how large the result, the materialized fallback holds all of it.
func e13Streaming() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 8})

	const joinQ = `SELECT person.name, movie.title FROM person
		JOIN cast_info ON cast_info.person_id = person.person_id
		JOIN movie ON movie.movie_id = cast_info.movie_id
		WHERE movie.genre MATCH 'drama' AND cast_info.role = 'director'`
	const scanQ = `SELECT * FROM movie`
	joinStmt, err := quest.ParseSQL(joinQ)
	if err != nil {
		panic(err)
	}
	scanStmt, err := quest.ParseSQL(scanQ)
	if err != nil {
		panic(err)
	}

	tbl := &eval.Table{
		Title:   "E13a — columnar vs row frames: gather bytes on the wire (loopback remote, imdb scale 8)",
		Headers: []string{"shards", "protocol", "join-us", "scan-us", "wire-bytes", "row-frames", "col-frames", "bytes-vs-v1"},
	}
	for _, n := range []int{4, 8} {
		var v1Bytes uint64
		for _, proto := range []int{transport.ProtocolV1, transport.ProtocolV2} {
			parts, err := shardpkg.Partition(db, n)
			if err != nil {
				panic(err)
			}
			clients := make([]*transport.Client, n)
			backends := make([]shardpkg.Backend, n)
			for i, p := range parts {
				c, err := transport.NewLoopbackClient(wrapper.NewFullAccessSource(p),
					transport.Options{Protocol: proto})
				if err != nil {
					panic(err)
				}
				clients[i] = c
				backends[i] = c
			}
			remote := shardpkg.NewFromBackends(db.Name, db.Schema, backends,
				shardpkg.Options{AssumeHashRouting: true})
			// Both protocols run the exact same query count (warm-up
			// included), so the summed byte counters compare like for like.
			if _, err := remote.Execute(joinStmt); err != nil {
				panic(err)
			}
			if _, err := remote.Execute(scanStmt); err != nil {
				panic(err)
			}
			var joinUs, scanUs float64
			for _, run := range []struct {
				stmt *sqlpkg.SelectStmt
				reps int
				us   *float64
			}{{joinStmt, 5, &joinUs}, {scanStmt, 5, &scanUs}} {
				start := time.Now()
				for i := 0; i < run.reps; i++ {
					if _, err := remote.Execute(run.stmt); err != nil {
						panic(err)
					}
				}
				*run.us = float64(time.Since(start).Microseconds()) / float64(run.reps)
			}
			var st transport.ClientStats
			for _, c := range clients {
				s := c.Stats()
				st.BytesReceived += s.BytesReceived
				st.RowFrames += s.RowFrames
				st.ColumnarFrames += s.ColumnarFrames
			}
			remote.Close()
			name, ratio := "v1 rows", "1.00x"
			if proto == transport.ProtocolV2 {
				name = "v2 columnar"
				ratio = fmt.Sprintf("%.2fx", float64(st.BytesReceived)/float64(v1Bytes))
			} else {
				v1Bytes = st.BytesReceived
			}
			tbl.AddRow(fmt.Sprint(n), name,
				fmt.Sprintf("%.1f", joinUs), fmt.Sprintf("%.1f", scanUs),
				fmt.Sprint(st.BytesReceived), fmt.Sprint(st.RowFrames),
				fmt.Sprint(st.ColumnarFrames), ratio)
		}
	}
	emit(tbl)

	// E13b: server-side buffering on the no-LIMIT full-table fragment.
	src := wrapper.NewFullAccessSource(db)
	res, err := src.Execute(scanStmt)
	if err != nil {
		panic(err)
	}
	resultBytes := 0
	for _, r := range res.Rows {
		resultBytes += sqlpkg.EncodedRowSize(r)
	}
	tbl2 := &eval.Table{
		Title:   "E13b — server buffer high-water on a no-LIMIT full-table fragment (imdb scale 8)",
		Headers: []string{"server", "result-rows", "result-bytes", "buffer-high-water", "hw/result"},
	}
	for _, m := range []struct {
		name    string
		backend wrapper.SourceExecutor
	}{
		{"streaming", src},
		{"materialized", &materializedBackend{SourceExecutor: src}},
	} {
		srv := transport.NewServer(m.backend)
		c, err := transport.NewClient(
			[]transport.Dialer{transport.LoopbackDialer(srv)}, transport.Options{})
		if err != nil {
			panic(err)
		}
		if _, err := c.Execute(scanStmt); err != nil {
			panic(err)
		}
		c.Close()
		hw := srv.BufferHighWater()
		tbl2.AddRow(m.name, fmt.Sprint(len(res.Rows)), fmt.Sprint(resultBytes),
			fmt.Sprint(hw), fmt.Sprintf("%.3f", float64(hw)/float64(resultBytes)))
	}
	emit(tbl2)
}

// replGroup is E14's fault-injectable replica group: servers reached
// through net.Pipe, where killing a replica makes it undialable and
// severs its live connections — the same model the conformance fault
// harness uses.
type replGroup struct {
	mu    sync.Mutex
	srvs  map[string]*transport.Server
	down  map[string]bool
	conns map[string][]net.Conn
}

func (g *replGroup) dial(name string) (net.Conn, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	srv := g.srvs[name]
	if srv == nil || g.down[name] {
		return nil, fmt.Errorf("replica %s is down", name)
	}
	cc, sc := net.Pipe()
	g.conns[name] = append(g.conns[name], cc, sc)
	go srv.ServeConn(sc)
	return cc, nil
}

func (g *replGroup) kill(name string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.down[name] = true
	for _, c := range g.conns[name] {
		c.Close()
	}
	g.conns[name] = nil
}

func (g *replGroup) killAll() {
	g.mu.Lock()
	names := make([]string, 0, len(g.srvs))
	for name := range g.srvs {
		names = append(names, name)
	}
	g.mu.Unlock()
	for _, name := range names {
		g.kill(name)
	}
}

// newReplGroup builds one shard group of n replicas, each a server over
// its own copy of db, and a replicated client over them.
func newReplGroup(db *quest.Database, n int, opt transport.Options) (*replGroup, *transport.Client) {
	g := &replGroup{
		srvs:  map[string]*transport.Server{},
		down:  map[string]bool{},
		conns: map[string][]net.Conn{},
	}
	specs := make([]transport.ReplicaSpec, n)
	for i := 0; i < n; i++ {
		copies, err := shardpkg.Partition(db, 1)
		if err != nil {
			panic(err)
		}
		srv := transport.NewServer(wrapper.NewFullAccessSource(copies[0]))
		srv.Resolver = g.dial
		name := fmt.Sprintf("replica-%d", i)
		g.srvs[name] = srv
		specs[i] = transport.ReplicaSpec{Name: name, Dial: func() (net.Conn, error) { return g.dial(name) }}
	}
	c, err := transport.NewReplicatedClient(specs, opt)
	if err != nil {
		panic(err)
	}
	return g, c
}

// benchRow synthesizes the i-th replicated write: a movie row with a key
// space far above the dataset generator's.
func benchRow(ts *quest.TableSchema, i int) quest.Row {
	row := make(quest.Row, len(ts.Columns))
	for c, col := range ts.Columns {
		switch col.Type {
		case relational.TypeInt:
			row[c] = quest.Int(int64(9_000_000 + 100*i + c))
		case relational.TypeFloat:
			row[c] = quest.Float(float64(i) + 0.5)
		case relational.TypeBool:
			row[c] = quest.Bool(i%2 == 0)
		default:
			row[c] = quest.Text(fmt.Sprintf("bench-%d-%d", i, c))
		}
	}
	return row
}

// e14Failover: the PR 7 replication/failover scorecard. E14a times the
// synchronous replicated write path as backups are added to the group —
// each backup adds one in-line replicate round trip, so the latency
// deltas are the price of the durability. E14b kills the primary and
// times recovery two ways: write-driven (the next Insert itself detects
// the dead primary, demotes it and promotes the freshest backup — the
// recovery time IS that insert's latency) and probe-driven (a background
// prober detects the death with no write traffic; recovery is the time
// until the catalog shows a new primary). Both modes then run a
// point-lookup burst against the degraded group and report query
// failures, which must be zero: reads rotate around the dead replica.
func e14Failover() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1})
	ts := db.Schema.Table("movie")
	if ts == nil {
		panic("e14: no movie table")
	}

	tbl := &eval.Table{
		Title:   "E14a — replicated write latency vs backup count (imdb scale 1, synchronous fan-out)",
		Headers: []string{"backups", "writes", "avg-us", "p99-us", "repl-acks", "epoch"},
	}
	const writes = 300
	for _, replicas := range []int{1, 2, 3} {
		g, c := newReplGroup(db, replicas, transport.Options{
			MaxAttempts:  4,
			RetryBackoff: time.Millisecond,
		})
		if err := c.Insert(ts.Name, benchRow(ts, 0)); err != nil { // configure + warm
			panic(err)
		}
		lat := make([]time.Duration, 0, writes)
		for i := 1; i <= writes; i++ {
			start := time.Now()
			if err := c.Insert(ts.Name, benchRow(ts, i)); err != nil {
				panic(err)
			}
			lat = append(lat, time.Since(start))
		}
		st := c.Stats()
		fs := c.FleetStatus()
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		avg := time.Duration(0)
		for _, d := range lat {
			avg += d
		}
		avg /= time.Duration(len(lat))
		p99 := lat[len(lat)*99/100]
		tbl.AddRow(fmt.Sprint(replicas-1), fmt.Sprint(writes),
			fmt.Sprintf("%.1f", float64(avg.Microseconds())),
			fmt.Sprintf("%.1f", float64(p99.Microseconds())),
			fmt.Sprint(st.ReplicationAcks), fmt.Sprint(fs.Epoch))
		c.Close()
		g.killAll()
	}
	emit(tbl)

	tbl2 := &eval.Table{
		Title:   "E14b — kill-primary recovery (3 replicas): failover time and reads through the outage",
		Headers: []string{"mode", "writes-before", "recovery-ms", "demotions", "promotions", "probe-failures", "queries", "query-failures"},
	}
	point, err := quest.ParseSQL("SELECT title FROM movie WHERE movie_id = 100")
	if err != nil {
		panic(err)
	}
	for _, mode := range []string{"write-driven", "probe-driven"} {
		opt := transport.Options{
			MaxAttempts:        6,
			RetryBackoff:       time.Millisecond,
			ProbeFailThreshold: 2,
		}
		if mode == "probe-driven" {
			opt.ProbeInterval = 2 * time.Millisecond
		}
		g, c := newReplGroup(db, 3, opt)
		const before = 20
		for i := 0; i < before; i++ {
			if err := c.Insert(ts.Name, benchRow(ts, i)); err != nil {
				panic(err)
			}
		}
		oldPrimary := c.FleetStatus().Primary
		g.kill(oldPrimary)
		start := time.Now()
		var recovery time.Duration
		if mode == "write-driven" {
			if err := c.Insert(ts.Name, benchRow(ts, before)); err != nil {
				panic(err)
			}
			recovery = time.Since(start)
		} else {
			deadline := time.Now().Add(10 * time.Second)
			for c.FleetStatus().Primary == oldPrimary && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			recovery = time.Since(start)
			if err := c.Insert(ts.Name, benchRow(ts, before)); err != nil {
				panic(err)
			}
		}
		const queries = 500
		failures := 0
		for i := 0; i < queries; i++ {
			if _, err := c.Execute(point); err != nil {
				failures++
			}
		}
		st := c.Stats()
		tbl2.AddRow(mode, fmt.Sprint(before),
			fmt.Sprintf("%.2f", float64(recovery.Microseconds())/1000),
			fmt.Sprint(st.Demotions), fmt.Sprint(st.Promotions),
			fmt.Sprint(st.ProbeFailures), fmt.Sprint(queries), fmt.Sprint(failures))
		c.Close()
		g.killAll()
	}
	emit(tbl2)
}

// e15Durability: the PR 8 shard-durability scorecard. E15a sweeps the
// group-commit grid — batch size, linger, fsync on/off — with eight
// concurrent appenders mirroring the server's write discipline (sequence
// assignment and submission under one mutex, durability awaited outside
// it), showing fsyncs amortize across writers while per-append commit
// latency stays bounded. E15b times a snapshot checkpoint against each
// dataset, the cost the SnapshotEvery policy pays to truncate the log.
// E15c measures cold recovery — reopen a directory with a schema-only
// base — as the replayed log tail grows, the restart-time cost of
// checkpointing rarely.
func e15Durability() {
	db := quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1})
	ts := db.Schema.Table("movie")
	if ts == nil {
		panic("e15: no movie table")
	}

	tbl := &eval.Table{
		Title:   "E15a — group commit grid: 8 writers, 2000 appends (imdb movie rows)",
		Headers: []string{"fsync", "batch", "wait", "batches", "ops/batch", "fsyncs", "avg-commit-us", "p99-commit-us", "appends/sec"},
	}
	const total, writers = 2000, 8
	for _, c := range []struct {
		fsync bool
		batch int
		wait  time.Duration
	}{
		{true, 1, 0}, {true, 16, 0}, {true, 64, 200 * time.Microsecond},
		{false, 1, 0}, {false, 16, 0}, {false, 64, 200 * time.Microsecond},
	} {
		dir, err := os.MkdirTemp("", "questbench-e15a-*")
		if err != nil {
			panic(err)
		}
		// Empty base: E15a measures the commit path, not replay.
		base, err := quest.NewDatabase(db.Name, db.Schema)
		if err != nil {
			panic(err)
		}
		l, _, err := quest.OpenShardWAL(dir, base, quest.WALOptions{
			BatchSize: c.batch, MaxWait: c.wait, NoFsync: !c.fsync,
		})
		if err != nil {
			panic(err)
		}
		var (
			mu   sync.Mutex
			seqv uint64
			next int64 = -1
			wg   sync.WaitGroup
		)
		lat := make([]time.Duration, total)
		start := time.Now()
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= total {
						return
					}
					row := benchRow(ts, i)
					t0 := time.Now()
					mu.Lock()
					seqv++
					cm := l.Append(seqv, ts.Name, row)
					mu.Unlock()
					if err := cm.Wait(); err != nil {
						panic(err)
					}
					lat[i] = time.Since(t0)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := l.Stats()
		l.Close()
		os.RemoveAll(dir)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		avg := time.Duration(0)
		for _, d := range lat {
			avg += d
		}
		avg /= time.Duration(len(lat))
		tbl.AddRow(fmt.Sprint(c.fsync), fmt.Sprint(c.batch), c.wait.String(),
			fmt.Sprint(st.Batches),
			fmt.Sprintf("%.1f", float64(st.Appends)/float64(st.Batches)),
			fmt.Sprint(st.Fsyncs),
			fmt.Sprintf("%.1f", float64(avg.Microseconds())),
			fmt.Sprintf("%.1f", float64(lat[total*99/100].Microseconds())),
			fmt.Sprintf("%.0f", float64(total)/elapsed.Seconds()))
	}
	emit(tbl)

	tbl2 := &eval.Table{
		Title:   "E15b — snapshot checkpoint cost per dataset (write temp + fsync + rename + truncate)",
		Headers: []string{"dataset", "rows", "snapshot-ms", "snapshot-bytes"},
	}
	for _, d := range []struct {
		name  string
		build func() *quest.Database
	}{
		{"mondial", func() *quest.Database { return quest.BuildMondial(quest.DatasetConfig{Seed: *seed, Scale: 1}) }},
		{"imdb", func() *quest.Database { return quest.BuildIMDB(quest.DatasetConfig{Seed: *seed, Scale: 1}) }},
		{"dblp", func() *quest.Database { return quest.BuildDBLP(quest.DatasetConfig{Seed: *seed, Scale: 1}) }},
	} {
		db2 := d.build()
		copies, err := shardpkg.Partition(db2, 1)
		if err != nil {
			panic(err)
		}
		dir, err := os.MkdirTemp("", "questbench-e15b-*")
		if err != nil {
			panic(err)
		}
		l, _, err := quest.OpenShardWAL(dir, copies[0], quest.WALOptions{})
		if err != nil {
			panic(err)
		}
		const rounds = 3
		start := time.Now()
		for i := 0; i < rounds; i++ {
			if err := l.Checkpoint(); err != nil {
				panic(err)
			}
		}
		per := time.Since(start) / rounds
		fi, err := os.Stat(dir + "/snapshot")
		if err != nil {
			panic(err)
		}
		l.Close()
		os.RemoveAll(dir)
		tbl2.AddRow(d.name, fmt.Sprint(db2.TotalRows()),
			fmt.Sprintf("%.2f", float64(per.Microseconds())/1000), fmt.Sprint(fi.Size()))
	}
	emit(tbl2)

	tbl3 := &eval.Table{
		Title:   "E15c — cold recovery vs log length (imdb base snapshot + replayed tail)",
		Headers: []string{"log-ops", "replayed", "recovery-ms", "rows-recovered"},
	}
	for _, logOps := range []int{100, 1000, 5000} {
		copies, err := shardpkg.Partition(db, 1)
		if err != nil {
			panic(err)
		}
		dir, err := os.MkdirTemp("", "questbench-e15c-*")
		if err != nil {
			panic(err)
		}
		wopt := quest.WALOptions{NoFsync: true}
		l, rec, err := quest.OpenShardWAL(dir, copies[0], wopt)
		if err != nil {
			panic(err)
		}
		waits := make([]func() error, 0, 128)
		for i := 0; i < logOps; i++ {
			row := benchRow(ts, i)
			if err := rec.DB.Insert(ts.Name, row); err != nil {
				panic(err)
			}
			waits = append(waits, l.Append(uint64(i+1), ts.Name, row).Wait)
			if len(waits) == cap(waits) || i == logOps-1 {
				for _, wait := range waits {
					if err := wait(); err != nil {
						panic(err)
					}
				}
				waits = waits[:0]
			}
		}
		l.Close()
		empty, err := quest.NewDatabase(db.Name, db.Schema)
		if err != nil {
			panic(err)
		}
		l2, rec2, err := quest.OpenShardWAL(dir, empty, wopt)
		if err != nil {
			panic(err)
		}
		rows := rec2.DB.TotalRows()
		l2.Close()
		os.RemoveAll(dir)
		tbl3.AddRow(fmt.Sprint(logOps), fmt.Sprint(rec2.ReplayedOps),
			fmt.Sprintf("%.2f", float64(rec2.Elapsed.Microseconds())/1000), fmt.Sprint(rows))
	}
	emit(tbl3)
}
