package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/sql"
)

func TestTablesAndSchema(t *testing.T) {
	db := newDB(t)
	if names, err := db.Tables(); err != nil || len(names) != 0 {
		t.Fatalf("fresh db tables = %v, %v", names, err)
	}
	db.MustExec(`CREATE TABLE zebra (a INTEGER); CREATE TABLE aardvark (b TEXT)`)
	names, err := db.Tables()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "aardvark" || names[1] != "zebra" {
		t.Fatalf("tables = %v (want sorted)", names)
	}
	schema, err := db.Schema("zebra")
	if err != nil || schema != "CREATE TABLE zebra (a INTEGER)" {
		t.Fatalf("schema = %q, %v", schema, err)
	}
	if _, err := db.Schema("missing"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing schema: %v", err)
	}
}

func TestExplicitTxnSpanningDDLAndDML(t *testing.T) {
	db := newDB(t)
	db.MustExec(`BEGIN;
		CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT);
		INSERT INTO t VALUES (1, 'one');
		INSERT INTO t VALUES (2, 'two');
		COMMIT`)
	rows, _ := db.QueryRows(`SELECT COUNT(*) FROM t`)
	if rows[0][0].AsInt() != 2 {
		t.Fatal("DDL+DML txn lost rows")
	}
	// Rolling back a CREATE TABLE removes the table entirely.
	db.MustExec(`BEGIN; CREATE TABLE gone (x INTEGER); INSERT INTO gone VALUES (1); ROLLBACK`)
	if _, err := db.Exec(`SELECT * FROM gone`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("rolled-back table still exists: %v", err)
	}
	// And the original table is untouched.
	rows, _ = db.QueryRows(`SELECT COUNT(*) FROM t`)
	if rows[0][0].AsInt() != 2 {
		t.Fatal("rollback damaged sibling table")
	}
}

func TestErrorInsideExplicitTxnKeepsItOpen(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	db.MustExec(`BEGIN; INSERT INTO t VALUES (1)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err == nil { // duplicate
		t.Fatal("duplicate accepted")
	}
	// Transaction still open; the earlier insert is still pending.
	if !db.explicit {
		t.Fatal("txn closed by statement error")
	}
	db.MustExec(`COMMIT`)
	rows, _ := db.QueryRows(`SELECT COUNT(*) FROM t`)
	if rows[0][0].AsInt() != 1 {
		t.Fatalf("count = %v", rows[0][0])
	}
}

func TestTypeAffinity(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (i INTEGER, r REAL, s TEXT)`)
	db.MustExec(`INSERT INTO t VALUES ('42', 7, 99)`)
	db.MustExec(`INSERT INTO t VALUES (3.0, 'x', 'y')`)
	rows, _ := db.QueryRows(`SELECT i, r, s FROM t`)
	if r := rows[0]; r[0].Kind() != sql.KindInt || r[1].Kind() != sql.KindReal || r[2].Kind() != sql.KindInt {
		t.Fatalf("affinity = %v", r)
	}
	if r := rows[1]; r[0].Kind() != sql.KindInt || r[0].AsInt() != 3 || r[1].Kind() != sql.KindText {
		t.Fatalf("affinity = %v", r)
	}
	// UPDATE applies the same affinity.
	db.MustExec(`UPDATE t SET i = '7', r = 2 WHERE rowid = 2`)
	rows, _ = db.QueryRows(`SELECT i, r FROM t WHERE rowid = 2`)
	if r := rows[0]; r[0].Kind() != sql.KindInt || r[1].Kind() != sql.KindReal {
		t.Fatalf("update affinity = %v", r)
	}
}

func TestNullComparisons(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO t (id) VALUES (1)`)
	db.MustExec(`INSERT INTO t VALUES (2, 'x')`)
	rows, err := db.QueryRows(`SELECT id, v FROM t WHERE id = 1`)
	if err != nil || len(rows) != 1 || !rows[0][1].IsNull() {
		t.Fatalf("unset column = %v, %v", rows, err)
	}
	// A comparison with NULL on either side matches nothing.
	for where, want := range map[string]int{"v = NULL": 0, "v != NULL": 0, "v != 'y'": 1, "v < 'y'": 1} {
		rows, _ = db.QueryRows(`SELECT id FROM t WHERE ` + where)
		if len(rows) != want || want == 1 && rows[0][0].AsInt() != 2 {
			t.Fatalf("%s matched %v, want %d row(s)", where, rows, want)
		}
	}
}

func TestBlobRoundTripThroughSQL(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE b (id INTEGER PRIMARY KEY, data BLOB)`)
	db.MustExec(`INSERT INTO b VALUES (1, x'00ff10ab')`)
	rows, err := db.QueryRows(`SELECT data FROM b WHERE id = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0][0]; got.Kind() != sql.KindBlob || string(got.AsBlob()) != "\x00\xff\x10\xab" {
		t.Fatalf("blob = %v", got)
	}
	// Blobs compare bytewise in a WHERE.
	db.MustExec(`INSERT INTO b VALUES (2, x'00ff')`)
	rows, _ = db.QueryRows(`SELECT id FROM b WHERE data > x'00ff'`)
	if len(rows) != 1 || rows[0][0].AsInt() != 1 {
		t.Fatalf("blob compare = %v", rows)
	}
}

func TestUpdatePrimaryKeyMovesRow(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`INSERT INTO t VALUES (1, 'a'), (2, 'b')`)
	db.MustExec(`UPDATE t SET id = 10 WHERE id = 1`)
	rows, _ := db.QueryRows(`SELECT id, v FROM t`)
	if len(rows) != 2 || rows[1][0].AsInt() != 10 || rows[1][1].AsText() != "a" {
		t.Fatalf("rows = %v", rows)
	}
	// Moving onto an existing rowid violates the constraint.
	if _, err := db.Exec(`UPDATE t SET id = 2 WHERE id = 10`); !errors.Is(err, ErrConstraint) {
		t.Fatalf("pk collision: %v", err)
	}
}

func TestLargeTextValuesSpanningPages(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, fast.Config{PageSize: 4096, MaxPages: 4096, Variant: fast.InPlaceCommit})
	db := Open(st)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	long := strings.Repeat("abcdefgh", 300) // 2400 bytes
	db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (1, '%s')`, long))
	rows, _ := db.QueryRows(`SELECT v FROM t WHERE id = 1`)
	if rows[0][0].AsText() != long {
		t.Fatalf("length = %d", len(rows[0][0].AsText()))
	}
	// A value too large for any page errors cleanly.
	huge := strings.Repeat("x", 8000)
	if _, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (2, '%s')`, huge)); err == nil {
		t.Fatal("oversized record accepted")
	}
	// The failed statement rolled back; the table still works.
	db.MustExec(`INSERT INTO t VALUES (3, 'ok')`)
}

func TestStatementOverheadCharged(t *testing.T) {
	if StatementOverheadNS != 10_000 {
		t.Fatalf("StatementOverheadNS = %d, want the 10 µs calibration", StatementOverheadNS)
	}
	db := newDB(t)
	// BEGIN and ROLLBACK touch no page: each costs the overhead exactly.
	clock := db.st.Sys().Clock()
	t0 := clock.Now()
	db.MustExec(`BEGIN; ROLLBACK`)
	if d := clock.Now() - t0; d != 2*StatementOverheadNS {
		t.Fatalf("BEGIN; ROLLBACK charged %d ns, want %d", d, 2*StatementOverheadNS)
	}
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	t0 = clock.Now()
	db.MustExec(`SELECT COUNT(*) FROM t`)
	if d := clock.Now() - t0; d < StatementOverheadNS {
		t.Fatalf("SELECT charged %d ns, want >= %d", d, StatementOverheadNS)
	}
}

// TestQueryRowsRejectsMultipleStatements checks that a batch of more than
// one statement is refused before any of it runs: the table keeps its rows.
func TestQueryRowsRejectsMultipleStatements(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY); INSERT INTO t VALUES (1), (2)`)
	for _, src := range []string{
		`SELECT * FROM t; SELECT id FROM t`,
		`DELETE FROM t; SELECT * FROM t`,
		`INSERT INTO t VALUES (3); DELETE FROM t WHERE id = 1`,
		`BEGIN; DELETE FROM t`,
	} {
		if _, err := db.QueryRows(src); err == nil {
			t.Fatalf("%s: multi-statement query accepted", src)
		}
		if db.explicit {
			t.Fatalf("%s: left a transaction open", src)
		}
		rows, err := db.QueryRows(`SELECT id FROM t`)
		if err != nil || len(rows) != 2 || rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 2 {
			t.Fatalf("%s: table is now %v, %v", src, rows, err)
		}
	}
}

func TestValueKindsSurviveSQLRoundTrip(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT, d BLOB)`)
	db.MustExec(`INSERT INTO t VALUES (1, -7, 2.5, 'hi', x'beef')`)
	rows, _ := db.QueryRows(`SELECT a, b, c, d FROM t`)
	r := rows[0]
	if r[0].Kind() != sql.KindInt || r[1].Kind() != sql.KindReal ||
		r[2].Kind() != sql.KindText || r[3].Kind() != sql.KindBlob {
		t.Fatalf("kinds = %v %v %v %v", r[0].Kind(), r[1].Kind(), r[2].Kind(), r[3].Kind())
	}
}
