package relational

import (
	"strings"
	"testing"
)

func populatedDB(t *testing.T) *Database {
	t.Helper()
	db, err := NewDatabase("test", moviesSchemaForDB(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{Int(1), String_("the dark night"), Int(2008)},
		{Int(2), String_("silent river"), Int(1994)},
		{Int(3), String_("dark river"), Int(2001)},
	}
	for _, r := range rows {
		if err := db.Insert("movie", r); err != nil {
			t.Fatal(err)
		}
	}
	casts := []Row{
		{Int(1), Int(1), String_("alice smith")},
		{Int(2), Int(1), String_("bob jones")},
		{Int(3), Int(2), String_("alice smith")},
	}
	for _, r := range casts {
		if err := db.Insert("cast_info", r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func moviesSchemaForDB(t *testing.T) *Schema {
	t.Helper()
	s := NewSchema()
	for _, ts := range []*TableSchema{
		{
			Name: "movie",
			Columns: []Column{
				{Name: "movie_id", Type: TypeInt, NotNull: true},
				{Name: "title", Type: TypeString, NotNull: true},
				{Name: "year", Type: TypeInt},
			},
			PrimaryKey: "movie_id",
		},
		{
			Name: "cast_info",
			Columns: []Column{
				{Name: "cast_id", Type: TypeInt, NotNull: true},
				{Name: "movie_id", Type: TypeInt, NotNull: true},
				{Name: "person", Type: TypeString},
			},
			PrimaryKey: "cast_id",
			ForeignKeys: []ForeignKey{
				{Column: "movie_id", RefTable: "movie", RefColumn: "movie_id"},
			},
		},
	} {
		if err := s.AddTable(ts); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestInsertAndLen(t *testing.T) {
	db := populatedDB(t)
	if got := db.Table("movie").Len(); got != 3 {
		t.Fatalf("movie.Len() = %d, want 3", got)
	}
	if got := db.TotalRows(); got != 6 {
		t.Fatalf("TotalRows() = %d, want 6", got)
	}
}

func TestInsertArityMismatch(t *testing.T) {
	db := populatedDB(t)
	err := db.Insert("movie", Row{Int(9)})
	if err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("arity error expected, got %v", err)
	}
}

func TestInsertNotNullViolation(t *testing.T) {
	db := populatedDB(t)
	err := db.Insert("movie", Row{Int(9), Null(), Int(2000)})
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Fatalf("NOT NULL error expected, got %v", err)
	}
}

func TestInsertDuplicatePK(t *testing.T) {
	db := populatedDB(t)
	err := db.Insert("movie", Row{Int(1), String_("dup"), Int(2000)})
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Fatalf("duplicate PK error expected, got %v", err)
	}
}

func TestInsertCoercesTypes(t *testing.T) {
	db := populatedDB(t)
	// Year arrives as string; engine must coerce to INT.
	if err := db.Insert("movie", Row{Int(10), String_("x"), String_("1999")}); err != nil {
		t.Fatal(err)
	}
	row, ok := db.Table("movie").LookupPK(Int(10))
	if !ok {
		t.Fatal("LookupPK(10) failed")
	}
	if row[2].Type() != TypeInt || row[2].AsInt() != 1999 {
		t.Fatalf("year = %v (%v), want INT 1999", row[2], row[2].Type())
	}
}

func TestInsertUncoercibleFails(t *testing.T) {
	db := populatedDB(t)
	err := db.Insert("movie", Row{Int(11), String_("x"), String_("not-a-year")})
	if err == nil {
		t.Fatal("uncoercible insert should fail")
	}
}

func TestInsertUnknownTable(t *testing.T) {
	db := populatedDB(t)
	if err := db.Insert("nope", Row{}); err == nil {
		t.Fatal("insert into unknown table should fail")
	}
}

func TestLookupPK(t *testing.T) {
	db := populatedDB(t)
	row, ok := db.Table("movie").LookupPK(Int(2))
	if !ok {
		t.Fatal("LookupPK(2) not found")
	}
	if row[1].AsString() != "silent river" {
		t.Fatalf("row = %v", row)
	}
	if _, ok := db.Table("movie").LookupPK(Int(99)); ok {
		t.Fatal("LookupPK(99) should miss")
	}
}

func TestLookupSecondaryIndex(t *testing.T) {
	db := populatedDB(t)
	rows, err := db.Table("cast_info").Lookup("movie_id", Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Lookup(movie_id=1) = %d rows, want 2", len(rows))
	}
	rows, err = db.Table("cast_info").Lookup("movie_id", Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("Lookup(movie_id=3) = %d rows, want 0", len(rows))
	}
	if _, err := db.Table("cast_info").Lookup("nope", Int(1)); err == nil {
		t.Fatal("Lookup on unknown column should fail")
	}
}

func TestIndexMaintainedAcrossInserts(t *testing.T) {
	db := populatedDB(t)
	ci := db.Table("cast_info")
	if _, err := ci.EnsureIndex("person"); err != nil {
		t.Fatal(err)
	}
	// Insert after index creation: index must pick up the new row.
	if err := db.Insert("cast_info", Row{Int(4), Int(3), String_("carol white")}); err != nil {
		t.Fatal(err)
	}
	rows, err := ci.Lookup("person", String_("carol white"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("index missed post-creation insert: %d rows", len(rows))
	}
}

func TestDistinctCount(t *testing.T) {
	db := populatedDB(t)
	n, err := db.Table("cast_info").DistinctCount("person")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("DistinctCount(person) = %d, want 2", n)
	}
}

func TestCheckForeignKeys(t *testing.T) {
	db := populatedDB(t)
	if err := db.CheckForeignKeys(); err != nil {
		t.Fatalf("valid FKs reported: %v", err)
	}
	// NULL FKs are allowed.
	s := NewSchema()
	if err := s.AddTable(&TableSchema{
		Name:       "a",
		Columns:    []Column{{Name: "id", Type: TypeInt}},
		PrimaryKey: "id",
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(&TableSchema{
		Name:        "b",
		Columns:     []Column{{Name: "id", Type: TypeInt}, {Name: "aid", Type: TypeInt}},
		PrimaryKey:  "id",
		ForeignKeys: []ForeignKey{{Column: "aid", RefTable: "a", RefColumn: "id"}},
	}); err != nil {
		t.Fatal(err)
	}
	db2 := MustNewDatabase("t2", s)
	db2.Table("a").MustInsert(Row{Int(1)})
	db2.Table("b").MustInsert(Row{Int(1), Null()})
	if err := db2.CheckForeignKeys(); err != nil {
		t.Fatalf("NULL FK should be fine: %v", err)
	}
	db2.Table("b").MustInsert(Row{Int(2), Int(99)})
	if err := db2.CheckForeignKeys(); err == nil {
		t.Fatal("dangling FK must be reported")
	}
}

func TestRowClone(t *testing.T) {
	r := Row{Int(1), String_("x")}
	c := r.Clone()
	c[0] = Int(2)
	if r[0].AsInt() != 1 {
		t.Fatal("Clone must not share backing array")
	}
}

func TestNullPrimaryKeyRejected(t *testing.T) {
	db := populatedDB(t)
	err := db.Insert("movie", Row{Null(), String_("x"), Int(2000)})
	if err == nil {
		t.Fatal("NULL PK must be rejected")
	}
}

// TestEqualOrdinals covers the three lookup sources in ascending ordinal
// order: pkIndex (float probes of an INT key included), an equality index
// that already exists, and the sorted index with an uncollapsed side-run
// — without ever building an equality index itself.
func TestEqualOrdinals(t *testing.T) {
	db := populatedDB(t)
	movie, cast := db.Table("movie"), db.Table("cast_info")
	eq := func(tb *Table, col string, v Value, want ...int) {
		t.Helper()
		got, err := tb.EqualOrdinals(col, v)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("EqualOrdinals(%s, %v) = %v, want %v", col, v, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("EqualOrdinals(%s, %v) = %v, want %v", col, v, got, want)
			}
		}
	}
	eq(movie, "movie_id", Int(2), 1)
	eq(movie, "movie_id", Float(2), 1)
	eq(movie, "movie_id", Float(2.5))
	eq(movie, "movie_id", Null())

	// Sorted index: built on first use, never an equality index.
	eq(cast, "movie_id", Int(1), 0, 1)
	eq(cast, "movie_id", Float(1), 0, 1)
	if cast.HasIndex("movie_id") || !cast.HasSortedIndex("movie_id") {
		t.Fatal("EqualOrdinals must answer from the sorted index without building an equality index")
	}
	// Inserts land in the side-run; lookups merge it in ordinal order.
	for i, mid := range []int64{2, 1, 3} {
		if err := db.Insert("cast_info", Row{Int(int64(10 + i)), Int(mid), String_("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if m := cast.MaintenanceStats(); m.SortedIndexSideInserts != 3 {
		t.Fatalf("side-run holds %d inserts, want 3", m.SortedIndexSideInserts)
	}
	eq(cast, "movie_id", Int(1), 0, 1, 4)
	eq(cast, "movie_id", Int(2), 2, 3)
	eq(cast, "movie_id", Int(3), 5)
	eq(cast, "movie_id", String_("1"))

	// An existing equality index answers instead.
	if _, err := cast.EnsureIndex("person"); err != nil {
		t.Fatal(err)
	}
	eq(cast, "person", String_("alice smith"), 0, 2)
	if _, err := cast.EqualOrdinals("nope", Int(1)); err == nil {
		t.Fatal("unknown column must error")
	}
}
