package relational

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Row is one tuple; cells are positionally aligned with the table schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Table is a populated relation: schema plus rows plus maintained indexes.
//
// Bulk population (loaders, generators) remains a distinct phase that must
// not run concurrently with reads. After population, all read paths are
// safe to share between goroutines, and the index/statistics read paths
// (EnsureIndex, Lookup, RangeOrdinals, Stats, DistinctCount) additionally
// tolerate concurrent Inserts: Insert performs every shared-structure
// mutation — row append, version bump, index and statistics maintenance —
// under idxMu, the same lock those readers take. Unlocked row access
// (Rows, Row, LookupPK, executor scans) is still reads-only territory;
// callers that interleave scans with writes serialize at a higher layer
// (wrapper.FullAccessSource holds an RWMutex around Execute/Insert).
//
// Index invalidation rules: an equality index built by EnsureIndex is
// maintained incrementally by Insert (the new ordinal is appended to its
// posting), so indexes built mid-population stay correct. Sorted indexes
// and statistics snapshots are version-checked; Insert (see maintain.go)
// keeps sorted indexes current through a sorted side-run and accrues
// per-column statistics deltas, so reads after writes avoid full rebuilds.
// Every Insert also bumps the table's Version; consumers that cache
// derived state outside the table (the SQL planner's plan cache, the
// serving tier's response cache) key it on the version and so observe
// mutations as cache misses rather than stale reads.
type Table struct {
	Schema *TableSchema

	rows []Row

	// version counts mutations (Inserts); external caches key on it.
	// Atomic so cache-key reads (Version, DataVersion) never race Insert.
	version atomic.Uint64

	// pkIndex maps PK value key -> row ordinal (unique).
	pkIndex map[string]int
	// idxMu guards every lazily written structure below and the
	// shared-state mutations Insert performs.
	idxMu sync.Mutex
	// colIndexes maps column ordinal -> (value key -> row ordinals);
	// maintained lazily for FK columns and on demand.
	colIndexes map[int]map[string][]int
	// indexBuilds counts how many times EnsureIndex actually built an
	// index (operator-facing statistic; rebuilds after DropIndexes count
	// again).
	indexBuilds int
	// sortedIndexes maps column ordinal -> row ordinals sorted by value
	// (range-scan support). Each entry records the version it reflects;
	// Insert keeps current entries current by absorbing rows into a sorted
	// side-run, and a stale entry is rebuilt on next access.
	sortedIndexes map[int]*sortedIndex
	sortedBuilds  int
	sortedMerges  int // read-time main+side merges (see RangeOrdinals)
	sideInserts   int // inserts absorbed into side-runs
	// colStats caches per-column statistics snapshots, version-checked the
	// same way (see Stats in stats.go); statsMaint holds the incremental
	// maintenance state per column (see maintain.go).
	colStats         map[int]*ColumnStats
	statsBuilds      int
	statsSampled     int
	statsIncremental int
	statsMaint       map[int]*colMaint
}

// sortedIndex holds a column's non-NULL row ordinals ordered by
// (value ascending under Compare, ordinal ascending). The version pins the
// Table.Version it reflects; a mismatch means the table mutated without
// maintenance and the index must be rebuilt before use. Inserts land in
// side — also (value, ordinal)-ordered, and ordinal-disjoint above ords —
// which range reads merge on the fly until it exceeds
// SortedSideRunThreshold and is collapsed into ords.
type sortedIndex struct {
	version uint64
	ords    []int
	side    []int
}

func columnError(t *Table, column string) error {
	return fmt.Errorf("relational: table %s has no column %s", t.Schema.Name, column)
}

// NewTable returns an empty table for the given schema.
func NewTable(schema *TableSchema) *Table {
	t := &Table{
		Schema:     schema,
		colIndexes: make(map[int]map[string][]int),
	}
	if schema.PrimaryKey != "" {
		t.pkIndex = make(map[string]int)
	}
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.rows) }

// Row returns row i (shared, not copied).
func (t *Table) Row(i int) Row { return t.rows[i] }

// Rows returns the backing row slice (shared; callers must not mutate).
func (t *Table) Rows() []Row { return t.rows }

// Insert validates, coerces and appends a tuple, maintaining indexes.
func (t *Table) Insert(row Row) error {
	if len(row) != len(t.Schema.Columns) {
		return fmt.Errorf("relational: table %s: insert arity %d, want %d",
			t.Schema.Name, len(row), len(t.Schema.Columns))
	}
	coerced := make(Row, len(row))
	for i, v := range row {
		col := &t.Schema.Columns[i]
		if v.IsNull() {
			if col.NotNull {
				return fmt.Errorf("relational: table %s: NULL in NOT NULL column %s",
					t.Schema.Name, col.Name)
			}
			coerced[i] = v
			continue
		}
		cv, err := Coerce(v, col.Type)
		if err != nil {
			return fmt.Errorf("relational: table %s column %s: %w", t.Schema.Name, col.Name, err)
		}
		coerced[i] = cv
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.pkIndex != nil {
		pkOrd := t.Schema.ColumnIndex(t.Schema.PrimaryKey)
		key := coerced[pkOrd].Key()
		if coerced[pkOrd].IsNull() {
			return fmt.Errorf("relational: table %s: NULL primary key", t.Schema.Name)
		}
		if _, dup := t.pkIndex[key]; dup {
			return fmt.Errorf("relational: table %s: duplicate primary key %s",
				t.Schema.Name, coerced[pkOrd])
		}
		t.pkIndex[key] = len(t.rows)
	}
	ord := len(t.rows)
	t.rows = append(t.rows, coerced)
	oldVersion := t.version.Load()
	newVersion := t.version.Add(1)
	for colOrd, idx := range t.colIndexes {
		if coerced[colOrd].IsNull() {
			continue
		}
		k := coerced[colOrd].Key()
		idx[k] = append(idx[k], ord)
	}
	t.maintainInsertLocked(coerced, ord, oldVersion, newVersion)
	return nil
}

// maintainInsertLocked absorbs one inserted row into the incremental
// maintenance structures: each current sorted index takes the row into its
// side-run (collapsing when the run outgrows SortedSideRunThreshold), and
// each column with built statistics accrues the new cell in its delta.
// Caller holds idxMu.
func (t *Table) maintainInsertLocked(row Row, ord int, oldVersion, newVersion uint64) {
	for colOrd, si := range t.sortedIndexes {
		if si.version != oldVersion {
			continue // already stale; next read rebuilds it wholesale
		}
		si.version = newVersion
		v := row[colOrd]
		if v.IsNull() {
			continue // NULL cells are absent from sorted indexes
		}
		pos := sort.Search(len(si.side), func(i int) bool {
			return Compare(t.rows[si.side[i]][colOrd], v) > 0
		})
		si.side = append(si.side, 0)
		copy(si.side[pos+1:], si.side[pos:])
		si.side[pos] = ord
		t.sideInserts++
		if len(si.side) > SortedSideRunThreshold {
			t.collapseSideLocked(colOrd, si)
		}
	}
	for colOrd, m := range t.statsMaint {
		m.delta.note(row[colOrd])
	}
}

// collapseSideLocked folds an overgrown side-run back into the main sorted
// run with one linear merge (side ordinals all postdate main ordinals, so
// ties keep main first and (value, ordinal) order holds). It replaces the
// main run, so it counts as a rebuild. Caller holds idxMu.
func (t *Table) collapseSideLocked(colOrd int, si *sortedIndex) {
	merged := make([]int, 0, len(si.ords)+len(si.side))
	i, j := 0, 0
	for i < len(si.ords) && j < len(si.side) {
		if Compare(t.rows[si.ords[i]][colOrd], t.rows[si.side[j]][colOrd]) <= 0 {
			merged = append(merged, si.ords[i])
			i++
		} else {
			merged = append(merged, si.side[j])
			j++
		}
	}
	merged = append(merged, si.ords[i:]...)
	merged = append(merged, si.side[j:]...)
	si.ords = merged
	si.side = nil
	t.sortedBuilds++
}

// Version returns the table's mutation counter. It changes on every Insert,
// so any state derived from the rows can be cached against it.
func (t *Table) Version() uint64 { return t.version.Load() }

// MustInsert inserts and panics on error; used by generators and tests where
// schema correctness is established by construction.
func (t *Table) MustInsert(row Row) {
	if err := t.Insert(row); err != nil {
		panic(err)
	}
}

// LookupPK returns the row with the given primary key value, if any.
func (t *Table) LookupPK(v Value) (Row, bool) {
	if t.pkIndex == nil {
		return nil, false
	}
	if i, ok := t.pkIndex[v.Key()]; ok {
		return t.rows[i], true
	}
	return nil, false
}

// EnsureIndex builds (if needed) and returns the equality index for the
// named column: value key -> row ordinals. Safe for concurrent use with
// other readers after population; callers must treat the returned map as
// read-only.
func (t *Table) EnsureIndex(column string) (map[string][]int, error) {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if idx, ok := t.colIndexes[ord]; ok {
		return idx, nil
	}
	t.indexBuilds++
	idx := make(map[string][]int)
	for i, r := range t.rows {
		if r[ord].IsNull() {
			continue
		}
		k := r[ord].Key()
		idx[k] = append(idx[k], i)
	}
	t.colIndexes[ord] = idx
	return idx, nil
}

// Lookup returns the rows whose column equals v, using (and building) the
// equality index.
func (t *Table) Lookup(column string, v Value) ([]Row, error) {
	idx, err := t.EnsureIndex(column)
	if err != nil {
		return nil, err
	}
	ords := idx[v.Key()]
	out := make([]Row, len(ords))
	for i, o := range ords {
		out[i] = t.rows[o]
	}
	return out, nil
}

// LookupOrdinals returns the ordinals of the rows whose column equals v,
// using (and building) the equality index. The returned slice is shared
// with the index; callers must treat it as read-only. Primary-key probes
// are answered straight from pkIndex — no duplicate index build for the
// most common planner access path.
func (t *Table) LookupOrdinals(column string, v Value) ([]int, error) {
	if v.IsNull() {
		// NULL never equals anything; indexes do not record NULL cells.
		return nil, nil
	}
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	if t.pkIndex != nil && ord == t.Schema.ColumnIndex(t.Schema.PrimaryKey) {
		if i, ok := t.pkIndex[v.Key()]; ok {
			return []int{i}, nil
		}
		return nil, nil
	}
	idx, err := t.EnsureIndex(column)
	if err != nil {
		return nil, err
	}
	return idx[v.Key()], nil
}

// DistinctCount returns the number of distinct non-NULL values in a column.
func (t *Table) DistinctCount(column string) (int, error) {
	idx, err := t.EnsureIndex(column)
	if err != nil {
		return 0, err
	}
	return len(idx), nil
}

// ensureSortedLocked returns the up-to-date sorted index for the column
// ordinal, building or rebuilding it when missing or stale. Caller holds
// idxMu.
func (t *Table) ensureSortedLocked(ord int) *sortedIndex {
	if si, ok := t.sortedIndexes[ord]; ok && si.version == t.version.Load() {
		return si
	}
	ords := make([]int, 0, len(t.rows))
	for i, r := range t.rows {
		if r[ord].IsNull() {
			continue
		}
		ords = append(ords, i)
	}
	sort.SliceStable(ords, func(a, b int) bool {
		return Compare(t.rows[ords[a]][ord], t.rows[ords[b]][ord]) < 0
	})
	si := &sortedIndex{version: t.version.Load(), ords: ords}
	if t.sortedIndexes == nil {
		t.sortedIndexes = make(map[int]*sortedIndex)
	}
	t.sortedIndexes[ord] = si
	t.sortedBuilds++
	return si
}

// RangeOrdinals returns the ordinals of the rows whose column value lies in
// the [lo, hi] interval under Compare ordering, with per-bound strictness
// (loInc/hiInc select ≥/≤ over >/<). A NULL bound is unbounded on that
// side; NULL cells never qualify (they are absent from the sorted index,
// matching SQL comparison semantics). The result is ordered by value;
// unless the sorted side-run contributes rows (in which case a fresh merged
// slice is allocated) it is a sub-slice of the shared index — callers must
// treat it as read-only either way. A sorted index is built on first use
// and rebuilt whenever the table version moved without maintenance, so a
// stale index is never consulted: range scans always see every row.
func (t *Table) RangeOrdinals(column string, lo, hi Value, loInc, hiInc bool) ([]int, error) {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return nil, columnError(t, column)
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	si := t.ensureSortedLocked(ord)
	cut := func(ords []int) (int, int) {
		val := func(i int) Value { return t.rows[ords[i]][ord] }
		start := 0
		if !lo.IsNull() {
			start = sort.Search(len(ords), func(i int) bool {
				c := Compare(val(i), lo)
				if loInc {
					return c >= 0
				}
				return c > 0
			})
		}
		end := len(ords)
		if !hi.IsNull() {
			end = sort.Search(len(ords), func(i int) bool {
				c := Compare(val(i), hi)
				if hiInc {
					return c > 0
				}
				return c >= 0
			})
		}
		return start, end
	}
	start, end := cut(si.ords)
	if len(si.side) == 0 {
		if start >= end {
			return nil, nil
		}
		return si.ords[start:end], nil
	}
	s2, e2 := cut(si.side)
	switch {
	case s2 >= e2 && start >= end:
		return nil, nil
	case s2 >= e2:
		return si.ords[start:end], nil
	case start >= end:
		return si.side[s2:e2], nil
	}
	// Both runs contribute: merge the two value-ordered slices. Side
	// ordinals postdate main ordinals, so ties keep main first and the
	// (value, ordinal) contract holds.
	main, side := si.ords[start:end], si.side[s2:e2]
	merged := make([]int, 0, len(main)+len(side))
	i, j := 0, 0
	for i < len(main) && j < len(side) {
		if Compare(t.rows[main[i]][ord], t.rows[side[j]][ord]) <= 0 {
			merged = append(merged, main[i])
			i++
		} else {
			merged = append(merged, side[j])
			j++
		}
	}
	merged = append(merged, main[i:]...)
	merged = append(merged, side[j:]...)
	t.sortedMerges++
	return merged, nil
}

// HasSortedIndex reports whether an up-to-date sorted index exists for the
// column (it does not trigger a build).
func (t *Table) HasSortedIndex(column string) bool {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return false
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	si, ok := t.sortedIndexes[ord]
	return ok && si.version == t.version.Load()
}

// SortedIndexedColumns returns the names of the columns with an up-to-date
// sorted index, in schema order (operator-facing statistic).
func (t *Table) SortedIndexedColumns() []string {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	var out []string
	for i := range t.Schema.Columns {
		if si, ok := t.sortedIndexes[i]; ok && si.version == t.version.Load() {
			out = append(out, t.Schema.Columns[i].Name)
		}
	}
	return out
}

// SortedIndexBuildCount returns how many sorted-index builds this table has
// performed (first builds and stale-version rebuilds alike).
func (t *Table) SortedIndexBuildCount() int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return t.sortedBuilds
}

// HasIndex reports whether an equality index is already built for the
// column (it does not trigger a build).
func (t *Table) HasIndex(column string) bool {
	ord := t.Schema.ColumnIndex(column)
	if ord < 0 {
		return false
	}
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	_, ok := t.colIndexes[ord]
	return ok
}

// IndexedColumns returns the names of the columns with a built equality
// index, in schema order (operator-facing statistic).
func (t *Table) IndexedColumns() []string {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	var out []string
	for i := range t.Schema.Columns {
		if _, ok := t.colIndexes[i]; ok {
			out = append(out, t.Schema.Columns[i].Name)
		}
	}
	return out
}

// IndexBuildCount returns how many equality-index builds this table has
// performed (lazy builds triggered by EnsureIndex, Lookup, LookupOrdinals,
// DistinctCount or the SQL planner).
func (t *Table) IndexBuildCount() int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	return t.indexBuilds
}

// DropIndexes discards every lazily built equality index, sorted index and
// statistics snapshot (the primary-key index is schema-declared and kept).
// Like Insert it belongs to the population phase: call it after bulk row
// replacement, never concurrently with readers.
func (t *Table) DropIndexes() {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	t.colIndexes = make(map[int]map[string][]int)
	t.sortedIndexes = nil
	t.colStats = nil
	t.statsMaint = nil
	t.version.Add(1)
}

// Database is a named collection of populated tables sharing one Schema.
type Database struct {
	Name   string
	Schema *Schema

	id     uint64
	tables map[string]*Table
}

// dbIDs hands every Database a process-unique identity (see ID).
var dbIDs atomic.Uint64

// ID returns a process-unique identifier for this database instance.
// External caches (the SQL planner's plan cache) key on it instead of the
// pointer, which the garbage collector could reuse for a later instance.
func (db *Database) ID() uint64 { return db.id }

// NewDatabase creates a database with empty tables for every table in the
// schema. The schema must validate.
func NewDatabase(name string, schema *Schema) (*Database, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	db := &Database{Name: name, Schema: schema, id: dbIDs.Add(1), tables: make(map[string]*Table)}
	for _, ts := range schema.Tables() {
		db.tables[lower(ts.Name)] = NewTable(ts)
	}
	return db, nil
}

// MustNewDatabase is NewDatabase panicking on error.
func MustNewDatabase(name string, schema *Schema) *Database {
	db, err := NewDatabase(name, schema)
	if err != nil {
		panic(err)
	}
	return db
}

// Table returns the populated table with the given name, or nil.
func (db *Database) Table(name string) *Table {
	return db.tables[lower(name)]
}

// Tables returns the populated tables in schema order.
func (db *Database) Tables() []*Table {
	out := make([]*Table, 0, len(db.tables))
	for _, ts := range db.Schema.Tables() {
		out = append(out, db.tables[lower(ts.Name)])
	}
	return out
}

// DataVersion folds every table's mutation counter into one value: it
// changes whenever any row of any table changes, so cross-table derived
// state (query plans, statistics) can be cached against it. Versions only
// grow, so the allocation-free sum over the table map is itself strictly
// increasing (and iteration-order independent). Called on every planner
// cache probe — keep it cheap.
func (db *Database) DataVersion() uint64 {
	var v uint64
	for _, t := range db.tables {
		v += t.Version()
	}
	return v
}

// TotalRows returns the number of tuples across all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, t := range db.tables {
		n += t.Len()
	}
	return n
}

// Insert adds a row to the named table.
func (db *Database) Insert(table string, row Row) error {
	t := db.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	return t.Insert(row)
}

// CheckForeignKeys verifies that every non-NULL FK value resolves to an
// existing referenced row. Generators call it once after population.
func (db *Database) CheckForeignKeys() error {
	for _, ts := range db.Schema.Tables() {
		t := db.Table(ts.Name)
		for _, fk := range ts.ForeignKeys {
			ord := ts.ColumnIndex(fk.Column)
			ref := db.Table(fk.RefTable)
			refIdx, err := ref.EnsureIndex(fk.RefColumn)
			if err != nil {
				return err
			}
			for i, r := range t.rows {
				v := r[ord]
				if v.IsNull() {
					continue
				}
				if len(refIdx[v.Key()]) == 0 {
					return fmt.Errorf("relational: %s row %d: dangling FK %s=%s -> %s.%s",
						ts.Name, i, fk.Column, v, fk.RefTable, fk.RefColumn)
				}
			}
		}
	}
	return nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}
