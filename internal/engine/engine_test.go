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
	rows, err := db.QueryRows(`SELECT id, name, score FROM users`)
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
	// A scan returns rows in rowid order.
	rows, err := db.QueryRows(`SELECT * FROM t WHERE c = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 || len(rows[0]) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0][0].AsInt() != 3 || rows[9][0].AsInt() != 48 || rows[9][1].AsText() != "row48" {
		t.Fatalf("rows = %v", rows)
	}
	rows, err = db.QueryRows(`SELECT COUNT(*) FROM t WHERE a > 20`)
	if err != nil || rows[0][0].AsInt() != 30 {
		t.Fatalf("count = %v, %v", rows, err)
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

func TestUpdateDelete(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	for i := 1; i <= 20; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*10))
	}
	res := db.MustExec(`UPDATE t SET v = 1 WHERE id <= 5`)
	if res[0].RowsAffected != 5 {
		t.Fatalf("update affected %d", res[0].RowsAffected)
	}
	rows, _ := db.QueryRows(`SELECT v FROM t WHERE id = 3`)
	if rows[0][0].AsInt() != 1 {
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
	// No WHERE: every row.
	if res = db.MustExec(`UPDATE t SET v = 0`); res[0].RowsAffected != 10 {
		t.Fatalf("update affected %d", res[0].RowsAffected)
	}
	if res = db.MustExec(`DELETE FROM t`); res[0].RowsAffected != 10 {
		t.Fatalf("delete affected %d", res[0].RowsAffected)
	}
	if rows, _ = db.QueryRows(`SELECT * FROM t`); len(rows) != 0 {
		t.Fatalf("rows left: %v", rows)
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

func TestRowidWithoutDeclaredPK(t *testing.T) {
	db := newDB(t)
	db.MustExec(`CREATE TABLE t (v TEXT)`)
	db.MustExec(`INSERT INTO t VALUES ('a'), ('b')`)
	rows, err := db.QueryRows(`SELECT rowid, v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() != 1 || rows[1][0].AsInt() != 2 {
		t.Fatalf("rowids = %v", rows)
	}
	rows, err = db.QueryRows(`SELECT v FROM t WHERE rowid = 2`)
	if err != nil || len(rows) != 1 || rows[0][0].AsText() != "b" {
		t.Fatalf("rowid lookup = %v, %v", rows, err)
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
			for i := 10; i <= 100; i += 10 {
				db.MustExec(fmt.Sprintf(`UPDATE kv SET v = 'patched' WHERE k = %d`, i))
			}
			for i := 7; i <= 100; i += 7 {
				db.MustExec(fmt.Sprintf(`DELETE FROM kv WHERE k = %d`, i))
			}
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
	rows, err := db.QueryRows(`SELECT id, v FROM t`)
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
