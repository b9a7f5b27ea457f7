package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/sql"
)

func newDB(t testing.TB) *DB {
	t.Helper()
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, fast.Config{PageSize: 1024, MaxPages: 8192, Variant: fast.InPlaceCommit})
	return Open(st)
}

func TestRecordRoundTrip(t *testing.T) {
	cases := [][]sql.Value{
		{},
		{sql.Null()},
		{sql.Int(42), sql.Text("hello"), sql.Real(3.25), sql.Blob([]byte{0, 1, 2}), sql.Null()},
		{sql.Int(-1), sql.Text(""), sql.Text(strings.Repeat("x", 300))},
	}
	for _, vals := range cases {
		rec := EncodeRecord(vals)
		got, err := DecodeRecord(rec)
		if err != nil {
			t.Fatalf("decode %v: %v", vals, err)
		}
		if len(got) != len(vals) {
			t.Fatalf("got %d values, want %d", len(got), len(vals))
		}
		for i := range vals {
			if vals[i].IsNull() != got[i].IsNull() ||
				(!vals[i].IsNull() && sql.Compare(vals[i], got[i]) != 0) {
				t.Fatalf("value %d: got %v, want %v", i, got[i], vals[i])
			}
		}
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(i int64, s string, r float64, b []byte, nullMask uint8) bool {
		vals := []sql.Value{sql.Int(i), sql.Text(s), sql.Real(r), sql.Blob(b)}
		for bit := 0; bit < 4; bit++ {
			if nullMask&(1<<bit) != 0 {
				vals[bit] = sql.Null()
			}
		}
		got, err := DecodeRecord(EncodeRecord(vals))
		if err != nil || len(got) != 4 {
			return false
		}
		for i := range vals {
			if vals[i].IsNull() != got[i].IsNull() {
				return false
			}
			if !vals[i].IsNull() && sql.Compare(vals[i], got[i]) != 0 {
				// NaN compares unequal to itself through AsReal; allow it.
				if vals[i].Kind() == sql.KindReal && vals[i].AsReal() != vals[i].AsReal() {
					continue
				}
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRecordRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		{0xFF}, {3, 6}, {2, 6, 1, 2, 3}, {0x80},
	}
	for _, b := range bad {
		if _, err := DecodeRecord(b); err == nil {
			t.Errorf("no error for %v", b)
		}
	}
}

func TestCreateInsertSelect(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT NOT NULL, score REAL)`)
	res := db.MustExec(`INSERT INTO users (name, score) VALUES ('alice', 9.5), ('bob', 7.25)`)
	if res[0].RowsAffected != 2 || res[0].LastInsertID != 2 {
		t.Fatalf("insert result %+v", res[0])
	}
	rows, err := db.QueryRows(`SELECT id, name, score FROM users ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].AsInt() != 1 || rows[0][1].AsText() != "alice" || rows[0][2].AsReal() != 9.5 {
		t.Fatalf("row0 = %v", rows[0])
	}
	if rows[1][0].AsInt() != 2 || rows[1][1].AsText() != "bob" {
		t.Fatalf("row1 = %v", rows[1])
	}
}

func TestSelectStarAndWhere(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT, c INTEGER)`)
	for i := 1; i <= 50; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row%d', %d)`, i, i, i%5))
	}
	rows, err := db.QueryRows(`SELECT * FROM t WHERE c = 3 AND a > 20 ORDER BY a DESC`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].AsInt() != 48 {
		t.Fatalf("first row = %v", rows[0])
	}
	// Point lookup by primary key.
	rows, err = db.QueryRows(`SELECT b FROM t WHERE a = 17`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].AsText() != "row17" {
		t.Fatalf("point lookup = %v", rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE n (v INTEGER, g TEXT)`)
	for i := 1; i <= 10; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO n VALUES (%d, 'x')`, i))
	}
	db.MustExec(`INSERT INTO n (g) VALUES ('null-v')`)
	rows, err := db.QueryRows(`SELECT COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) FROM n`)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r[0].AsInt() != 11 || r[1].AsInt() != 10 || r[2].AsInt() != 55 ||
		r[3].AsReal() != 5.5 || r[4].AsInt() != 1 || r[5].AsInt() != 10 {
		t.Fatalf("aggregates = %v", r)
	}
}

func TestUpdateDelete(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 1; i <= 20; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*10))
	}
	res := db.MustExec(`UPDATE t SET v = v + 1 WHERE id <= 5`)
	if res[0].RowsAffected != 5 {
		t.Fatalf("update affected %d", res[0].RowsAffected)
	}
	rows, _ := db.QueryRows(`SELECT v FROM t WHERE id = 3`)
	if rows[0][0].AsInt() != 31 {
		t.Fatalf("v = %v", rows[0][0])
	}
	res = db.MustExec(`DELETE FROM t WHERE v > 100`)
	if res[0].RowsAffected != 10 {
		t.Fatalf("delete affected %d", res[0].RowsAffected)
	}
	rows, _ = db.QueryRows(`SELECT COUNT(*) FROM t`)
	if rows[0][0].AsInt() != 10 {
		t.Fatalf("count = %v", rows[0][0])
	}
}

func TestExplicitTransactions(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	db.MustExec(`BEGIN; INSERT INTO t VALUES (1, 'a'); INSERT INTO t VALUES (2, 'b'); COMMIT`)
	rows, _ := db.QueryRows(`SELECT COUNT(*) FROM t`)
	if rows[0][0].AsInt() != 2 {
		t.Fatalf("count after commit = %v", rows[0][0])
	}
	db.MustExec(`BEGIN; INSERT INTO t VALUES (3, 'c'); ROLLBACK`)
	rows, _ = db.QueryRows(`SELECT COUNT(*) FROM t`)
	if rows[0][0].AsInt() != 2 {
		t.Fatalf("count after rollback = %v", rows[0][0])
	}
	if _, err := db.Exec(`COMMIT`); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit without begin: %v", err)
	}
}

func TestConstraints(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT NOT NULL)`)
	if _, err := db.Exec(`INSERT INTO t (id) VALUES (1)`); !errors.Is(err, ErrConstraint) {
		t.Fatalf("not null: %v", err)
	}
	db.MustExec(`INSERT INTO t VALUES (1, 'x')`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'y')`); !errors.Is(err, ErrConstraint) {
		t.Fatalf("duplicate pk: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO t2 VALUES (1)`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("missing table: %v", err)
	}
	if _, err := db.Exec(`SELECT nope FROM t`); !errors.Is(err, ErrNoSuchColumn) {
		t.Fatalf("missing column: %v", err)
	}
}

func TestDropTable(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE a (x INTEGER); CREATE TABLE b (y INTEGER)`)
	db.MustExec(`INSERT INTO a VALUES (1); INSERT INTO b VALUES (2)`)
	db.MustExec(`DROP TABLE a`)
	if _, err := db.Exec(`SELECT * FROM a`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("select from dropped: %v", err)
	}
	rows, _ := db.QueryRows(`SELECT y FROM b`)
	if len(rows) != 1 || rows[0][0].AsInt() != 2 {
		t.Fatal("sibling table damaged by drop")
	}
	if _, err := db.Exec(`DROP TABLE a`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double drop: %v", err)
	}
	db.MustExec(`DROP TABLE IF EXISTS a`)
	// Recreate with the same name.
	db.MustExec(`CREATE TABLE a (z TEXT); INSERT INTO a VALUES ('back')`)
	rows, _ = db.QueryRows(`SELECT z FROM a`)
	if rows[0][0].AsText() != "back" {
		t.Fatal("recreated table broken")
	}
}

func TestExpressionsAndFunctions(t *testing.T) {
	db := newDB(t)
	rows, err := db.QueryRows(
		`SELECT 1+2*3, -4, 10/4, 10.0/4, 7%3, 'a' || 'b', LENGTH('hello'), ABS(-3), UPPER('x'), NULL IS NULL, 3 != 4`)
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	want := []any{int64(7), int64(-4), int64(2), 2.5, int64(1), "ab", int64(5), int64(3), "X", int64(1), int64(1)}
	for i, w := range want {
		switch wv := w.(type) {
		case int64:
			if r[i].AsInt() != wv {
				t.Errorf("expr %d = %v, want %d", i, r[i], wv)
			}
		case float64:
			if r[i].AsReal() != wv {
				t.Errorf("expr %d = %v, want %g", i, r[i], wv)
			}
		case string:
			if r[i].AsText() != wv {
				t.Errorf("expr %d = %v, want %q", i, r[i], wv)
			}
		}
	}
}

func TestLike(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (s TEXT)`)
	for _, s := range []string{"apple", "apricot", "banana", "Avocado"} {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES ('%s')`, s))
	}
	rows, err := db.QueryRows(`SELECT s FROM t WHERE s LIKE 'a%' ORDER BY s`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 { // case-insensitive: Avocado matches
		t.Fatalf("LIKE matched %d rows", len(rows))
	}
	rows, _ = db.QueryRows(`SELECT s FROM t WHERE s LIKE '_anana'`)
	if len(rows) != 1 || rows[0][0].AsText() != "banana" {
		t.Fatalf("underscore match = %v", rows)
	}
}

func TestLimitOffset(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
	for i := 1; i <= 10; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	rows, _ := db.QueryRows(`SELECT id FROM t ORDER BY id LIMIT 3 OFFSET 4`)
	if len(rows) != 3 || rows[0][0].AsInt() != 5 {
		t.Fatalf("limit/offset = %v", rows)
	}
}

func TestRowidWithoutDeclaredPK(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (v TEXT)`)
	db.MustExec(`INSERT INTO t VALUES ('a'), ('b')`)
	rows, err := db.QueryRows(`SELECT rowid, v FROM t ORDER BY rowid`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 2 {
		t.Fatalf("rowids = %v", rows)
	}
}

func TestEngineOnAllSchemes(t *testing.T) {
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			db := Open(s.Create(sys, scheme.Geometry{PageSize: 1024, MaxPages: 4096}))
			db.MustExec(`CREATE TABLE kv (k INTEGER PRIMARY KEY, v TEXT)`)
			for i := 1; i <= 100; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'value-%d')`, i, i))
			}
			db.MustExec(`UPDATE kv SET v = 'patched' WHERE k % 10 = 0`)
			db.MustExec(`DELETE FROM kv WHERE k % 7 = 0`)
			rows, err := db.QueryRows(`SELECT COUNT(*) FROM kv`)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := 1; i <= 100; i++ {
				if i%7 != 0 {
					want++
				}
			}
			if got := rows[0][0].AsInt(); got != int64(want) {
				t.Fatalf("count = %d, want %d", got, want)
			}
			rows, _ = db.QueryRows(`SELECT v FROM kv WHERE k = 30`)
			if rows[0][0].AsText() != "patched" {
				t.Fatal("update lost")
			}
		})
	}
}

func TestDropTableFreesPagesForReuse(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, fast.Config{PageSize: 512, MaxPages: 8192, Variant: fast.InPlaceCommit})
	db := Open(st)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 1; i <= 200; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, i, strings.Repeat("z", 60)))
	}
	db.MustExec(`DROP TABLE t`)
	if st.Meta().FreeCount == 0 {
		t.Fatal("drop table freed no pages")
	}
	// Dropped pages are reused without growing the page space.
	db.MustExec(`CREATE TABLE t2 (id INTEGER PRIMARY KEY, v TEXT)`)
	before := st.Meta().NPages
	for i := 1; i <= 50; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t2 VALUES (%d, '%s')`, i, strings.Repeat("q", 60)))
	}
	if st.Meta().NPages != before {
		t.Fatalf("allocations did not reuse freed pages (%d -> %d)", before, st.Meta().NPages)
	}
}

// TestVacuumReclaimsCrashLeaks creates genuine leaks — pages freed by a
// committed transaction whose post-commit free-stack push was cut off by a
// crash — and verifies VACUUM recovers them.
func TestVacuumReclaimsCrashLeaks(t *testing.T) {
	cfg := fast.Config{PageSize: 512, MaxPages: 8192, Variant: fast.InPlaceCommit}
	workload := func(db *DB) {
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
		for i := 1; i <= 60; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, i, strings.Repeat("z", 60)))
		}
		// Growing updates force defragmentation, which frees old pages.
		for i := 1; i <= 60; i += 3 {
			db.MustExec(fmt.Sprintf(`UPDATE t SET v = '%s' WHERE id = %d`, strings.Repeat("w", 90), i))
		}
		db.MustExec(`DROP TABLE t`)
	}
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	base := sys.CrashPoints()
	workload(Open(fast.Create(sys, cfg)))
	total := sys.CrashPoints() - base
	step := total / 40
	if step == 0 {
		step = 1
	}
	leakedSomewhere := false
	for kpt := int64(0); kpt < total; kpt += step {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		st := fast.Create(sys, cfg)
		sys.CrashAfter(kpt)
		sys.RunToCrash(func() { workload(Open(st)) })
		sys.Crash(pmem.EvictNone)
		st2, err := fast.Attach(st.Arena(), cfg)
		if err != nil {
			t.Fatalf("crash@%d: %v", kpt, err)
		}
		if err := st2.Recover(); err != nil {
			t.Fatalf("crash@%d: %v", kpt, err)
		}
		db2 := Open(st2)
		res := db2.MustExec(`VACUUM`)
		if res[0].RowsAffected > 0 {
			leakedSomewhere = true
		}
		// The database is still fully usable after VACUUM.
		db2.MustExec(`CREATE TABLE IF NOT EXISTS probe (x INTEGER); INSERT INTO probe VALUES (1)`)
		rows, err := db2.QueryRows(`SELECT COUNT(*) FROM probe`)
		if err != nil || rows[0][0].AsInt() != 1 {
			t.Fatalf("crash@%d: database unusable after VACUUM: %v", kpt, err)
		}
	}
	if !leakedSomewhere {
		t.Fatal("no crash point produced a reclaimable leak; test is vacuous")
	}
}

func TestCrashRecoveryThroughEngine(t *testing.T) {
	cfg := fast.Config{PageSize: 512, MaxPages: 4096, Variant: fast.InPlaceCommit}
	// Count crash points of the full SQL workload.
	run := func(db *DB) int {
		committed := 0
		db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
		committed++
		for i := 1; i <= 15; i++ {
			db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'val-%d')`, i, i))
			committed++
		}
		return committed
	}
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	base := sys.CrashPoints()
	run(Open(fast.Create(sys, cfg)))
	total := sys.CrashPoints() - base
	step := total / 50
	if step == 0 {
		step = 1
	}
	if testing.Short() {
		step = total / 10
	}
	for kpt := int64(0); kpt < total; kpt += step {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		st := fast.Create(sys, cfg)
		db := Open(st)
		committed := 0
		sys.CrashAfter(kpt)
		sys.RunToCrash(func() { committed = run(db) })
		sys.Crash(pmem.CrashOptions{Seed: kpt, EvictProb: 0.5})

		st2, err := fast.Attach(st.Arena(), cfg)
		if err != nil {
			t.Fatalf("crash@%d: attach: %v", kpt, err)
		}
		if err := st2.Recover(); err != nil {
			t.Fatalf("crash@%d: recover: %v", kpt, err)
		}
		db2 := Open(st2)
		if committed == 0 {
			// CREATE TABLE may not have committed; both outcomes are legal.
			_, err := db2.Exec(`SELECT COUNT(*) FROM t`)
			if err != nil && !errors.Is(err, ErrNoSuchTable) {
				t.Fatalf("crash@%d: %v", kpt, err)
			}
			continue
		}
		rows, err := db2.QueryRows(`SELECT COUNT(*) FROM t`)
		if err != nil {
			t.Fatalf("crash@%d: count: %v", kpt, err)
		}
		got := rows[0][0].AsInt()
		wantMin := int64(committed - 1) // inserts committed so far
		if got != wantMin && got != wantMin+1 {
			t.Fatalf("crash@%d: %d rows, committed %d statements", kpt, got, committed)
		}
		// Every definitely-committed row intact.
		for i := int64(1); i <= wantMin; i++ {
			r, err := db2.QueryRows(fmt.Sprintf(`SELECT v FROM t WHERE id = %d`, i))
			if err != nil || len(r) != 1 || r[0][0].AsText() != fmt.Sprintf("val-%d", i) {
				t.Fatalf("crash@%d: row %d missing/corrupt", kpt, i)
			}
		}
	}
}

func TestEngineMatchesReferenceModel(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	rng := rand.New(rand.NewSource(21))
	model := map[int64]string{}
	for step := 0; step < 400; step++ {
		id := int64(rng.Intn(60) + 1)
		switch rng.Intn(4) {
		case 0, 1:
			v := fmt.Sprintf("v%d", rng.Intn(1000))
			_, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d, '%s')`, id, v))
			if _, exists := model[id]; exists {
				if err == nil {
					t.Fatalf("step %d: duplicate insert succeeded", step)
				}
			} else if err != nil {
				t.Fatalf("step %d: insert: %v", step, err)
			} else {
				model[id] = v
			}
		case 2:
			v := fmt.Sprintf("u%d", rng.Intn(1000))
			res, err := db.Exec(fmt.Sprintf(`UPDATE t SET v = '%s' WHERE id = %d`, v, id))
			if err != nil {
				t.Fatalf("step %d: update: %v", step, err)
			}
			if _, exists := model[id]; exists {
				if res[0].RowsAffected != 1 {
					t.Fatalf("step %d: update affected %d", step, res[0].RowsAffected)
				}
				model[id] = v
			} else if res[0].RowsAffected != 0 {
				t.Fatalf("step %d: phantom update", step)
			}
		case 3:
			res, err := db.Exec(fmt.Sprintf(`DELETE FROM t WHERE id = %d`, id))
			if err != nil {
				t.Fatalf("step %d: delete: %v", step, err)
			}
			if _, exists := model[id]; exists != (res[0].RowsAffected == 1) {
				t.Fatalf("step %d: delete mismatch", step)
			}
			delete(model, id)
		}
	}
	rows, err := db.QueryRows(`SELECT id, v FROM t ORDER BY id`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(model) {
		t.Fatalf("%d rows, model %d", len(rows), len(model))
	}
	for _, r := range rows {
		if model[r[0].AsInt()] != r[1].AsText() {
			t.Fatalf("row %v mismatches model", r)
		}
	}
}
