package engine

import (
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/sql"
)

// TestWhereOperators runs every comparison the dialect has, on a rowid
// alias, on a plain column and on the built-in rowid, against the same
// predicate evaluated in Go.
func TestWhereOperators(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 1; i <= 9; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, 10-i))
	}
	ops := map[string]func(a, b int64) bool{
		"=":  func(a, b int64) bool { return a == b },
		"!=": func(a, b int64) bool { return a != b },
		"<>": func(a, b int64) bool { return a != b },
		"<":  func(a, b int64) bool { return a < b },
		"<=": func(a, b int64) bool { return a <= b },
		">":  func(a, b int64) bool { return a > b },
		">=": func(a, b int64) bool { return a >= b },
	}
	for op, holds := range ops {
		for _, col := range []string{"id", "v", "rowid"} {
			rows, err := db.QueryRows(fmt.Sprintf(`SELECT id, v FROM t WHERE %s %s 4`, col, op))
			if err != nil {
				t.Fatal(err)
			}
			var want []int64
			for id := int64(1); id <= 9; id++ {
				x := id
				if col == "v" {
					x = 10 - id
				}
				if holds(x, 4) {
					want = append(want, id)
				}
			}
			if len(rows) != len(want) {
				t.Fatalf("%s %s 4: %d rows, want %d", col, op, len(rows), len(want))
			}
			for i, r := range rows {
				if r[0].AsInt() != want[i] || r[1].AsInt() != 10-want[i] {
					t.Fatalf("%s %s 4: row %d = %v, want id %d", col, op, i, r, want[i])
				}
			}
		}
	}
	// A rowid point lookup of an absent row, and a comparison across types.
	if rows, err := db.QueryRows(`SELECT * FROM t WHERE id = 99`); err != nil || len(rows) != 0 {
		t.Fatalf("absent row = %v, %v", rows, err)
	}
	if rows, _ := db.QueryRows(`SELECT COUNT(*) FROM t WHERE v < 'a'`); rows[0][0].AsInt() != 9 {
		t.Fatalf("numbers sort before text: %v", rows)
	}
	if _, err := db.Exec(`SELECT * FROM t WHERE nope = 1`); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("unknown WHERE column: %v", err)
	}
	if _, err := db.Exec(`UPDATE t SET nope = 1`); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("unknown SET column: %v", err)
	}
}

// TestIndexCatalogRowIsUnsupported opens a catalog that an older snapshot
// image can hold: a table and a CREATE INDEX row beside it. The catalog
// scans return the parser's typed error for that row, and the table itself
// still works.
func TestIndexCatalogRowIsUnsupported(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT); INSERT INTO t VALUES (1, 'one')`)
	tx, err := db.st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	cat := new(btree.Tx).Attach(db.st, tx, tx)
	if err := cat.Insert(db.catalogKey("t_v"), encodeCatalogRow(0, "CREATE INDEX t_v ON t (v)")); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	if names, err := db.Tables(); !errors.Is(err, sql.ErrUnsupported) || !strings.Contains(err.Error(), "CREATE INDEX") {
		t.Fatalf("Tables = %v, %v", names, err)
	}
	if _, err := db.Schema("t_v"); !errors.Is(err, sql.ErrUnsupported) {
		t.Fatalf("Schema of the index row: %v", err)
	}
	for _, src := range []string{`SELECT * FROM t_v`, `INSERT INTO t_v VALUES (1)`, `DELETE FROM t_v`} {
		if _, err := db.Exec(src); !errors.Is(err, sql.ErrUnsupported) {
			t.Fatalf("%s: %v", src, err)
		}
	}
	if schema, err := db.Schema("t"); err != nil || schema != "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)" {
		t.Fatalf("Schema(t) = %q, %v", schema, err)
	}
	db.MustExec(`UPDATE t SET v = 'uno' WHERE id = 1`)
	if rows, _ := db.QueryRows(`SELECT v FROM t`); len(rows) != 1 || rows[0][0].AsText() != "uno" {
		t.Fatalf("rows = %v", rows)
	}
}

// TestCatalogBytesPinned pins the catalog text and record of the tables the
// figures and the sql-insert bench create. Catalog rows live on PM, so one
// byte more or less would move every simulated number of Figures 11–12.
func TestCatalogBytesPinned(t *testing.T) {
	pins := []struct{ src, text, record string }{
		{
			`CREATE TABLE log (id INTEGER PRIMARY KEY, payload BLOB)`,
			"CREATE TABLE log (id INTEGER PRIMARY KEY, payload BLOB)",
			"03067b0000000000000007435245415445205441424c45206c6f672028696420494e5445474552205052494d415259204b45592c207061796c6f616420424c4f4229",
		},
		{
			`CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)`,
			"CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)",
			"0306790000000000000007435245415445205441424c45206b762028696420494e5445474552205052494d415259204b45592c207061796c6f616420424c4f4229",
		},
		{
			`create table IF NOT EXISTS Mixed (a int primary key, b text not null, r real, d, e blob NOT NULL)`,
			"CREATE TABLE Mixed (a INTEGER PRIMARY KEY, b TEXT NOT NULL, r REAL, d INTEGER, e BLOB NOT NULL)",
			"0406cb010000000000000007435245415445205441424c45204d6978656420286120494e5445474552205052494d415259204b45592c2062205445585420" +
				"4e4f54204e554c4c2c2072205245414c2c206420494e54454745522c206520424c4f42204e4f54204e554c4c29",
		},
	}
	for _, p := range pins {
		stmt, err := sql.ParseOne(p.src)
		if err != nil {
			t.Fatal(err)
		}
		text := renderCreateSQL(stmt.(sql.CreateTable))
		if text != p.text {
			t.Errorf("renderCreateSQL(%s)\n got %q\nwant %q", p.src, text, p.text)
		}
		rec := encodeCatalogRow(7, text)
		if got := hex.EncodeToString(rec); got != p.record {
			t.Errorf("catalog record of %s\n got %s\nwant %s", p.src, got, p.record)
		}
		if root, got, err := readCatalogRow(rec); err != nil || root != 7 || string(got) != text {
			t.Errorf("readCatalogRow(%s) = %d, %q, %v", p.src, root, got, err)
		}
		if _, _, err := readCatalogRow(rec[:len(rec)-1]); !errors.Is(err, ErrBadRecord) {
			t.Errorf("readCatalogRow of a truncated %s: %v", p.src, err)
		}
	}
}

// FuzzSQL runs a statement batch against a fresh FAST+ engine on 1 KiB
// pages holding a small table t. The batch must return results or an error,
// never panic; a seeded removed form must fail with sql.ErrUnsupported; and
// afterwards the catalog and every table's tree must pass Validate.
func FuzzSQL(f *testing.F) {
	kept := []string{
		`CREATE TABLE u (id INTEGER PRIMARY KEY, name TEXT NOT NULL, score REAL, pic BLOB)`,
		`CREATE TABLE IF NOT EXISTS t (x INT)`,
		`CREATE TABLE w (a TEXT, b); INSERT INTO w VALUES ('p', 1), ('q', 2); SELECT b FROM w WHERE a >= 'q'`,
		`INSERT INTO t VALUES (10, 'ten', 1.5, x'0a')`,
		`INSERT INTO t (v, n) VALUES ('a', -1), ('b', +2.5e3)`,
		`SELECT * FROM t`,
		`SELECT id, v FROM t WHERE id = 2`,
		`SELECT COUNT(*) FROM t WHERE n >= 1.5`,
		`SELECT rowid, b FROM t WHERE b <> x'01'`,
		`SELECT v FROM t WHERE v < 'two'; SELECT v FROM t WHERE v <= 'two'; SELECT v FROM t WHERE v > 'one'`,
		`UPDATE t SET v = 'x', n = NULL WHERE id > 1`,
		`UPDATE t SET id = 9 WHERE id = 1`,
		`UPDATE t SET v = 'all'`,
		`DELETE FROM t WHERE id != 2`,
		`DELETE FROM t`,
		`BEGIN; INSERT INTO t VALUES (20, 'a', 0, x''); COMMIT`,
		`BEGIN TRANSACTION; DELETE FROM t; ROLLBACK TRANSACTION`,
		`BEGIN; CREATE TABLE z (k INTEGER PRIMARY KEY); INSERT INTO z VALUES (1)`,
		// Keywords and names in mixed letter case.
		`select V from T where ID = 2; Select count(*) From t Where n >= 1.5`,
		`InSeRt InTo T vAlUeS (11, 'eleven', 2.0, X'0B'); uPdAtE t SeT v = NuLl WhErE iD = 11`,
		`Create Table MiXed (K Integer Primary Key, v Text Not Null); insert into MIXED values (1, 'a'); delete from mixed where K = 1`,
		`begin Transaction; DELETE from T where Rowid <> 1; rollback TRANSACTION`,
	}
	// One statement per construct the dialect refuses.
	refused := []string{
		`CREATE INDEX i ON t (v)`,
		`CREATE UNIQUE INDEX i ON t (v)`,
		`DROP INDEX i`,
		`DROP TABLE t`,
		`VACUUM`,
		`SELECT DISTINCT v FROM t`,
		`SELECT v, COUNT(*) FROM t GROUP BY v HAVING COUNT(*) > 1`,
		`SELECT SUM(n) FROM t`,
		`SELECT COUNT(v) FROM t`,
		`SELECT * FROM t ORDER BY v DESC`,
		`SELECT * FROM t LIMIT 1 OFFSET 1`,
		`SELECT * FROM t WHERE id > 1 AND id < 3`,
		`SELECT * FROM t WHERE id = 1 OR id = 2`,
		`SELECT * FROM t WHERE NOT id = 1`,
		`SELECT * FROM t WHERE v LIKE 't%'`,
		`SELECT * FROM t WHERE id IN (1, 2)`,
		`SELECT * FROM t WHERE id BETWEEN 1 AND 2`,
		`SELECT * FROM t WHERE v IS NULL`,
		`UPDATE t SET n = n + 1`,
		`INSERT INTO t VALUES (-id, 'x', 0, x'')`,
		`SELECT 1 + 1`,
		`SELECT LENGTH(v) FROM t`,
		`SELECT *`,
		`create Index i on T (v)`,
		`Select * From t Order By v`,
		`SELECT * FROM t WHERE id = 1 and id = 2`,
	}
	removed := map[string]bool{}
	for _, src := range kept {
		f.Add(src)
	}
	for _, src := range refused {
		removed[src] = true
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		db := Open(fast.Create(sys, fast.Config{PageSize: 1024, MaxPages: 512, LogBytes: 64 << 10, Variant: fast.InPlaceCommit}))
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT, n REAL, b BLOB);
			INSERT INTO t VALUES (1, 'one', 1.5, x'01'), (2, 'two', 2.5, x'02'), (3, NULL, NULL, NULL)`)
		_, err := db.Exec(src)
		if removed[src] && !errors.Is(err, sql.ErrUnsupported) {
			t.Fatalf("%q: err = %v, want sql.ErrUnsupported", src, err)
		}
		if db.explicit {
			db.MustExec(`ROLLBACK`)
		}
		names, err := db.Tables()
		if err != nil {
			t.Fatalf("Tables: %v", err)
		}
		tx, err := db.st.Begin()
		if err != nil {
			t.Fatal(err)
		}
		defer tx.Rollback()
		ex := &executor{db: db, ptx: tx}
		cat := ex.catalog()
		if err := cat.Validate(); err != nil {
			t.Fatalf("catalog: %v", err)
		}
		for _, name := range names {
			if err := ex.table(cat, name).Validate(); err != nil {
				t.Fatalf("table %s: %v", name, err)
			}
		}
	})
}
