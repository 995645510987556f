package relational

import (
	"fmt"
	"math/rand"
	"testing"
)

// propSchema builds the property-test table shape: an int PK, a nullable
// int column whose range grows under inserts, and a low-cardinality
// string column that stresses MCV bumping.
func propSchema(t *testing.T) *TableSchema {
	t.Helper()
	ts := &TableSchema{
		Name: "p",
		Columns: []Column{
			{Name: "id", Type: TypeInt, NotNull: true},
			{Name: "v", Type: TypeInt},
			{Name: "tag", Type: TypeString},
		},
		PrimaryKey: "id",
	}
	if err := ts.Validate(); err != nil {
		t.Fatal(err)
	}
	return ts
}

// propRow draws one random row: v is NULL one time in six, otherwise from
// a range that keeps extending past the current extrema; tag cycles a
// small vocabulary so most inserts repeat existing values.
func propRow(rng *rand.Rand, id int64) Row {
	v := Value(Null())
	if rng.Intn(6) > 0 {
		v = Int(int64(rng.Intn(2000)) - 1000 + id/4) // drifting range: new extrema keep appearing
	}
	return Row{Int(id), v, String_(fmt.Sprintf("tag-%d", rng.Intn(12)))}
}

// TestPropertyDeltaStatsTolerance is the maintenance correctness
// property: over randomized interleaved inserts, the delta-maintained
// statistics (merged across 1, 3 and 7 partitions via MergeColumnStats)
// must equal a from-scratch rebuild exactly on Rows, NullCount, Min and
// Max, and stay within bounded error on Distinct and the histogram mass.
func TestPropertyDeltaStatsTolerance(t *testing.T) {
	for _, shards := range []int{1, 3, 7} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + shards)))
			ts := propSchema(t)
			parts := make([]*Table, shards)
			for i := range parts {
				parts[i] = NewTable(ts)
			}
			var all []Row // ground truth: every row inserted anywhere
			insert := func(row Row) {
				t.Helper()
				if err := parts[len(all)%shards].Insert(row); err != nil {
					t.Fatal(err)
				}
				all = append(all, row)
			}

			nextID := int64(1)
			for i := 0; i < 600; i++ {
				insert(propRow(rng, nextID))
				nextID++
			}
			// Warm every partition's statistics so the rounds below run the
			// delta path from an established base snapshot.
			for _, col := range []string{"v", "tag"} {
				for _, p := range parts {
					if _, err := p.Stats(col); err != nil {
						t.Fatal(err)
					}
				}
			}

			inserted := 0
			for round := 0; round < 12; round++ {
				batch := 1 + rng.Intn(40)
				for i := 0; i < batch; i++ {
					insert(propRow(rng, nextID))
					nextID++
				}
				inserted += batch

				for _, col := range []string{"v", "tag"} {
					snaps := make([]*ColumnStats, shards)
					for i, p := range parts {
						cs, err := p.Stats(col)
						if err != nil {
							t.Fatal(err)
						}
						snaps[i] = cs
					}
					got := MergeColumnStats(snaps)

					// From-scratch control: a fresh table holding the same
					// rows, statistics built in one full pass.
					want := rebuildControl(t, ts, all, col)

					if got.Rows != want.Rows || got.NullCount != want.NullCount {
						t.Fatalf("round %d %s: rows/nulls = %d/%d, want exact %d/%d",
							round, col, got.Rows, got.NullCount, want.Rows, want.NullCount)
					}
					if Compare(got.Min, want.Min) != 0 || Compare(got.Max, want.Max) != 0 {
						t.Fatalf("round %d %s: min/max = %v/%v, want exact %v/%v",
							round, col, got.Min, got.Max, want.Min, want.Max)
					}
					// Distinct: one partition's delta path may over-count by
					// at most its inserts since the last full build, so the
					// single-shard bound is exact+inserted. Across
					// partitions the merge additionally double-counts
					// values shared between them, which only the
					// information-theoretic clamp (non-NULL rows) bounds;
					// the merge clamps below at the biggest partition's
					// count, which is at least exact/shards.
					nonNull := want.Rows - want.NullCount
					lo, hi := want.Distinct/shards, nonNull
					if shards == 1 && want.Distinct+inserted < hi {
						hi = want.Distinct + inserted
					}
					if got.Distinct < lo || got.Distinct > hi {
						t.Fatalf("round %d %s: distinct = %d, want within [%d, %d] (exact %d, inserted %d)",
							round, col, got.Distinct, lo, hi, want.Distinct, inserted)
					}
					// Histogram mass: a budget-stale snapshot carries the
					// base histogram, so the bucket mass may lag the true
					// non-NULL count by at most the inserts since the base,
					// and never exceeds it (merging re-cuts, never invents
					// rows beyond the partition totals).
					mass := 0
					for _, b := range got.Buckets {
						mass += b.Count
					}
					if len(got.Buckets) > 0 && (mass > nonNull || mass < nonNull-inserted) {
						t.Fatalf("round %d %s: histogram mass = %d, want within [%d, %d]",
							round, col, mass, nonNull-inserted, nonNull)
					}
				}
			}
		})
	}
}

// rebuildControl computes the from-scratch reference: the same rows in a
// fresh table whose first Stats call comes after every insert, so no delta
// exists and the call is a full build by construction.
func rebuildControl(t *testing.T, ts *TableSchema, rows []Row, col string) *ColumnStats {
	t.Helper()
	ctl := NewTable(ts)
	for _, row := range rows {
		if err := ctl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	cs, err := ctl.Stats(col)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Freshness != StatsFresh {
		t.Fatalf("control statistics are %q, want a full build", cs.Freshness)
	}
	return cs
}
