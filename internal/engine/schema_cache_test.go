package engine

import (
	"errors"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/sql"
)

// TestSchemaCacheFollowsCatalog drives one engine, and so one schema cache,
// through every way a table's catalog row can change under a decoded schema
// the cache holds: a CREATE TABLE rolled back and made again with other
// columns, an uncommitted CREATE TABLE lost to a crash, the same table named
// in another letter case, and a table row replaced by an old image's index
// row. Each statement must act on the row it reads, never on the cache.
func TestSchemaCacheFollowsCatalog(t *testing.T) {
	cfg := fast.Config{PageSize: 1024, MaxPages: 1024, Variant: fast.InPlaceCommit}
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, cfg)
	db := Open(st)
	exec := func(src string) {
		t.Helper()
		if _, err := db.Exec(src); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
	count := func(table string) int64 {
		t.Helper()
		rows, err := db.QueryRows(`SELECT COUNT(*) FROM ` + table)
		if err != nil {
			t.Errorf("count %s: %v", table, err)
			return -1
		}
		return rows[0][0].AsInt()
	}

	// Rolled back, then made again with other columns.
	exec(`BEGIN; CREATE TABLE t (a INTEGER, b TEXT); INSERT INTO t VALUES (1, 'one'); SELECT b FROM t; ROLLBACK`)
	if _, err := db.Exec(`SELECT * FROM t`); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("rolled-back table: %v", err)
	}
	exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, c REAL, d TEXT)`)
	exec(`INSERT INTO t VALUES (7, 2.5, 'seven')`)
	if rows, err := db.QueryRows(`SELECT d FROM t WHERE id = 7`); err != nil || len(rows) != 1 || rows[0][0].AsText() != "seven" {
		t.Errorf("re-created table: %v, %v", rows, err)
	}
	if _, err := db.Exec(`SELECT b FROM t`); !errors.Is(err, ErrNoSuchColumn) {
		t.Errorf("column of the rolled-back table: %v", err)
	}

	// An uncommitted CREATE TABLE, a crash, and the store reopened under
	// the same engine.
	exec(`BEGIN; CREATE TABLE n (x INTEGER PRIMARY KEY, y TEXT); INSERT INTO n VALUES (1, 'lost'); SELECT y FROM n`)
	sys.Crash(pmem.CrashOptions{Seed: 1, EvictProb: 0.5})
	st2, err := fast.Attach(st.Arena(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	db.st, db.tx, db.explicit = st2, nil, false
	if _, err := db.Exec(`SELECT * FROM n`); !errors.Is(err, ErrNoSuchTable) {
		t.Errorf("table of a lost transaction: %v", err)
	}
	exec(`CREATE TABLE n (p TEXT, q TEXT, r TEXT); INSERT INTO n VALUES ('a', 'b', 'c')`)
	if rows, err := db.QueryRows(`SELECT r FROM n`); err != nil || len(rows) != 1 || rows[0][0].AsText() != "c" {
		t.Errorf("table made after the crash: %v, %v", rows, err)
	}
	if got := count("t"); got != 1 {
		t.Errorf("committed table after the crash: %d rows", got)
	}

	// One table named in mixed case, and a rolled-back table made again
	// under another case with other columns.
	exec(`CREATE TABLE MiXed (k INTEGER PRIMARY KEY, v TEXT)`)
	exec(`INSERT INTO mixed VALUES (1, 'x'); INSERT INTO MIXED (v) VALUES ('y'); UPDATE Mixed SET v = 'z' WHERE k = 1`)
	if rows, err := db.QueryRows(`SELECT v FROM mIxEd WHERE k = 1`); err != nil || len(rows) != 1 || rows[0][0].AsText() != "z" {
		t.Errorf("mixed-case table: %v, %v", rows, err)
	}
	exec(`BEGIN; CREATE TABLE Case1 (a TEXT); INSERT INTO case1 VALUES ('a'); ROLLBACK`)
	exec(`CREATE TABLE CASE1 (a TEXT, b TEXT); INSERT INTO Case1 VALUES ('a', 'b')`)
	if schema, err := db.Schema("case1"); err != nil || schema != "CREATE TABLE CASE1 (a TEXT, b TEXT)" {
		t.Errorf("Schema(case1) = %q, %v", schema, err)
	}

	// A table's row replaced by the index row an older image can hold.
	exec(`BEGIN; CREATE TABLE t_v (id INTEGER PRIMARY KEY, v TEXT); INSERT INTO t_v VALUES (1, 'x'); SELECT v FROM t_v; ROLLBACK`)
	tx, err := db.st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	ex := &executor{db: db, ptx: tx}
	if err := ex.catalog().Insert(db.catalogKey("t_v"), encodeCatalogRow(0, "CREATE INDEX t_v ON t (d)")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`INSERT INTO t_v VALUES (2, 'y')`, `SELECT v FROM t_v WHERE id = 1`,
		`UPDATE t_v SET v = 'z' WHERE id = 1`, `DELETE FROM t_v WHERE id = 1`, `SELECT COUNT(*) FROM T_V`,
	} {
		for range 2 {
			if _, err := db.Exec(src); !errors.Is(err, sql.ErrUnsupported) {
				t.Errorf("%s on an index row: %v", src, err)
			}
		}
	}
	if got := count("t"); got != 1 {
		t.Errorf("table beside the index row: %d rows", got)
	}
}
