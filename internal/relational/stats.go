package relational

import "sort"

// Statistics sizing. StatsHistogramBuckets caps the equi-depth histogram;
// columns with fewer distinct values get one exact bucket per value.
// StatsMaxMCVs caps the most-common-values list; values that occur only
// once never enter it (a unique column has no "common" values and the
// uniform estimate already covers it).
const (
	StatsHistogramBuckets = 32
	StatsMaxMCVs          = 8
)

// MCV is one most-common-value entry: an exact (value, occurrence count)
// pair for a frequent value, the part of the distribution a histogram
// smears out on skewed data.
type MCV struct {
	Value Value
	Count int
}

// Bucket is one equi-depth histogram bucket: Count rows whose values lie in
// (previous bucket's Upper, Upper], with Distinct distinct values among
// them. The first bucket's implicit lower bound is the column minimum.
type Bucket struct {
	Upper    Value
	Count    int
	Distinct int
}

// ColumnStats summarizes one column's value distribution at a fixed table
// version. All fields describe non-NULL cells except Rows (total) and
// NullCount. Consumers (the SQL planner's cardinality estimator) must
// obtain it through Table.Stats, which rebuilds stale snapshots — a stats
// object is immutable and safe to share, but only valid for Version.
type ColumnStats struct {
	Column  string
	Version uint64 // Table.Version the snapshot was built at

	Rows      int // total rows, NULLs included
	NullCount int
	Distinct  int // distinct non-NULL values
	Min, Max  Value

	MCVs     []MCV    // most common values, by descending count
	Buckets  []Bucket // equi-depth histogram over all non-NULL rows
	mcvTotal int      // sum of MCV counts

	// Freshness labels how the snapshot was produced: StatsFresh (full
	// rebuild), StatsBudgetStale (delta folded into an older base; exact
	// rows/nulls/min/max, stale histogram) or StatsSampled (stride-sampled
	// rebuild). Process-local diagnostics only — the wire codec does not
	// ship it, so decoded snapshots read "" (treated as fresh).
	Freshness string
}

// Rehydrate recomputes the derived unexported state (the MCV count total)
// from the exported fields. It is the last step of decoding a ColumnStats
// that crossed a process boundary — the wire codec (internal/sql) ships
// only the exported fields, and an un-rehydrated snapshot would
// over-estimate the non-MCV remainder in EstimateEq.
func (cs *ColumnStats) Rehydrate() {
	cs.mcvTotal = 0
	for _, m := range cs.MCVs {
		cs.mcvTotal += m.Count
	}
}

// NullFraction returns the fraction of rows that are NULL.
func (cs *ColumnStats) NullFraction() float64 {
	if cs.Rows == 0 {
		return 0
	}
	return float64(cs.NullCount) / float64(cs.Rows)
}

// EstimateEq estimates how many rows equal v: exact for values in the MCV
// list, uniform over the remaining distinct values otherwise, and zero
// outside the observed [Min, Max] range. NULL never equals anything.
func (cs *ColumnStats) EstimateEq(v Value) int {
	if v.IsNull() {
		return 0
	}
	nonNull := cs.Rows - cs.NullCount
	if nonNull == 0 {
		return 0
	}
	for _, m := range cs.MCVs {
		if Compare(m.Value, v) == 0 {
			return m.Count
		}
	}
	if Compare(v, cs.Min) < 0 || Compare(v, cs.Max) > 0 {
		return 0
	}
	rest := nonNull - cs.mcvTotal
	restDistinct := cs.Distinct - len(cs.MCVs)
	if rest <= 0 || restDistinct <= 0 {
		return 0
	}
	est := rest / restDistinct
	if est < 1 {
		est = 1
	}
	return est
}

// EstimateRange estimates how many rows v satisfy lo ≤/< v ≤/< hi under the
// engine's Compare ordering. A NULL bound is unbounded on that side. The
// estimate walks the histogram, linearly interpolating inside the bucket a
// bound falls into (numeric columns interpolate by magnitude, others take
// half the straddled bucket).
func (cs *ColumnStats) EstimateRange(lo, hi Value, loInc, hiInc bool) int {
	nonNull := cs.Rows - cs.NullCount
	if nonNull == 0 || len(cs.Buckets) == 0 {
		return 0
	}
	below := func(x Value, inclusive bool) float64 {
		// Rows with value < x (or ≤ x when inclusive).
		if x.IsNull() {
			return 0
		}
		acc := 0.0
		lower := cs.Min
		for _, b := range cs.Buckets {
			c := Compare(x, b.Upper)
			if c > 0 || (c == 0 && inclusive) {
				acc += float64(b.Count)
				lower = b.Upper
				continue
			}
			acc += interpolate(lower, b.Upper, x) * float64(b.Count)
			return acc
		}
		return acc
	}
	var lower, upper float64
	if lo.IsNull() {
		lower = 0
	} else {
		lower = below(lo, !loInc)
	}
	if hi.IsNull() {
		upper = float64(nonNull)
	} else {
		upper = below(hi, hiInc)
	}
	est := int(upper - lower)
	if est < 0 {
		est = 0
	}
	if est > nonNull {
		est = nonNull
	}
	return est
}

// interpolate returns the fraction of the way x sits through (lo, hi]:
// by magnitude for numeric values, 0.5 for anything the engine cannot
// meaningfully subdivide (strings, cross-type bounds).
func interpolate(lo, hi, x Value) float64 {
	if Compare(x, lo) <= 0 {
		return 0
	}
	if Compare(x, hi) >= 0 {
		return 1
	}
	if numeric(lo.Type()) && numeric(hi.Type()) && numeric(x.Type()) {
		l, h, v := lo.AsFloat(), hi.AsFloat(), x.AsFloat()
		if h > l {
			f := (v - l) / (h - l)
			if f < 0 {
				return 0
			}
			if f > 1 {
				return 1
			}
			return f
		}
	}
	return 0.5
}

// buildColumnStats computes the statistics snapshot for one column in a
// single pass over the rows plus one sort: the sorted non-NULL values give
// distinct count (run boundaries), min/max (ends), the MCV list (longest
// runs) and the equi-depth histogram (quantile cuts) without any hashing.
func buildColumnStats(t *Table, ord int) *ColumnStats {
	cs := &ColumnStats{
		Column:    t.Schema.Columns[ord].Name,
		Version:   t.version.Load(),
		Rows:      len(t.rows),
		Freshness: StatsFresh,
	}
	vals := make([]Value, 0, len(t.rows))
	for _, r := range t.rows {
		if r[ord].IsNull() {
			cs.NullCount++
			continue
		}
		vals = append(vals, r[ord])
	}
	if len(vals) == 0 {
		return cs
	}
	sort.SliceStable(vals, func(i, j int) bool { return Compare(vals[i], vals[j]) < 0 })
	cs.Min, cs.Max = vals[0], vals[len(vals)-1]

	// Walk the runs of equal values once, collecting distinct count and the
	// candidate MCVs (runs of length ≥ 2).
	type run struct {
		v     Value
		count int
	}
	var runs []run
	start := 0
	for i := 1; i <= len(vals); i++ {
		if i < len(vals) && Compare(vals[i], vals[start]) == 0 {
			continue
		}
		runs = append(runs, run{v: vals[start], count: i - start})
		start = i
	}
	cs.Distinct = len(runs)

	mcvRuns := make([]run, 0, len(runs))
	for _, r := range runs {
		if r.count >= 2 {
			mcvRuns = append(mcvRuns, r)
		}
	}
	sort.SliceStable(mcvRuns, func(i, j int) bool { return mcvRuns[i].count > mcvRuns[j].count })
	if len(mcvRuns) > StatsMaxMCVs {
		mcvRuns = mcvRuns[:StatsMaxMCVs]
	}
	for _, r := range mcvRuns {
		cs.MCVs = append(cs.MCVs, MCV{Value: r.v, Count: r.count})
		cs.mcvTotal += r.count
	}

	// Histogram: exact (one bucket per value) when the vocabulary is small,
	// equi-depth quantile cuts otherwise. Buckets always end on a value
	// boundary so a bucket's Upper is a real column value.
	if cs.Distinct <= StatsHistogramBuckets {
		for _, r := range runs {
			cs.Buckets = append(cs.Buckets, Bucket{Upper: r.v, Count: r.count, Distinct: 1})
		}
		return cs
	}
	target := (len(vals) + StatsHistogramBuckets - 1) / StatsHistogramBuckets
	b := Bucket{}
	for _, r := range runs {
		b.Count += r.count
		b.Distinct++
		b.Upper = r.v
		if b.Count >= target {
			cs.Buckets = append(cs.Buckets, b)
			b = Bucket{}
		}
	}
	if b.Count > 0 {
		cs.Buckets = append(cs.Buckets, b)
	}
	return cs
}

// Stats returns the statistics snapshot for the named column, building it
// on first use and refreshing it whenever the table has been mutated since
// the cached snapshot was taken: a snapshot whose Version trails the
// table's current Version is never served. A refresh within the staleness
// budget folds the per-column insert delta into the last full snapshot
// instead of rebuilding — rows/nulls/min/max stay exact, the histogram
// rides along budget-stale — and budget-exceeding refreshes of large
// tables rebuild by sampling; see maintain.go. Safe for concurrent use,
// including concurrently with Insert; the returned object is immutable.
func (t *Table) Stats(column string) (*ColumnStats, error) {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	version := t.version.Load()
	if cs, ok := t.colStats[ord]; ok && cs.Version == version {
		return cs, nil
	}
	if m, ok := t.statsMaint[ord]; ok && m.withinBudget() {
		cs := t.applyDeltaLocked(ord, m)
		t.colStats[ord] = cs
		t.statsIncremental++
		return cs, nil
	}
	var cs *ColumnStats
	if len(t.rows) >= StatsSampleRows {
		cs = sampleColumnStats(t, ord)
		t.statsSampled++
	} else {
		cs = buildColumnStats(t, ord)
	}
	if t.colStats == nil {
		t.colStats = make(map[int]*ColumnStats)
	}
	t.colStats[ord] = cs
	t.statsBuilds++
	if t.statsMaint == nil {
		t.statsMaint = make(map[int]*colMaint)
	}
	t.statsMaint[ord] = &colMaint{base: cs}
	return cs, nil
}

// StatsFreshnessSummary returns the worst freshness label among the
// table's currently cached, current-version statistics snapshots — the
// ones the planner just consulted — or "" when none are cached.
// ExplainAnalyze uses it to report what kind of estimates a scan was
// costed from.
func (t *Table) StatsFreshnessSummary() string {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	version := t.version.Load()
	out := ""
	for _, cs := range t.colStats {
		if cs.Version != version {
			continue
		}
		f := cs.Freshness
		if f == "" {
			f = StatsFresh
		}
		if out == "" {
			out = f
		} else {
			out = worseFreshness(out, f)
		}
	}
	return out
}

// StatsBuildCount returns how many column-statistics snapshots this table
// has computed (first builds and stale-version rebuilds alike).
func (t *Table) StatsBuildCount() int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return t.statsBuilds
}
