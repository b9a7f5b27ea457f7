package fasp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/sql"
)

func TestOpenAllSchemes(t *testing.T) {
	for _, scheme := range []string{SchemeFASTPlus, SchemeFAST, SchemeNVWAL, SchemeWAL, SchemeJournal} {
		t.Run(scheme, func(t *testing.T) {
			db, err := Open(Options{Scheme: scheme})
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
			db.MustExec(`INSERT INTO t VALUES (1, 'hello')`)
			rows, err := db.Query(`SELECT v FROM t WHERE id = 1`)
			if err != nil || len(rows) != 1 || rows[0][0].AsText() != "hello" {
				t.Fatalf("rows = %v, err = %v", rows, err)
			}
			if db.SimulatedNS() <= 0 {
				t.Fatal("simulated clock did not advance")
			}
		})
	}
}

func TestOpenUnknownScheme(t *testing.T) {
	if _, err := Open(Options{Scheme: "bogus"}); err == nil {
		t.Fatal("no error for unknown scheme")
	}
}

// TestSchemeValidation pins the Options.Scheme contract: names are
// case-insensitive, the journal/nvwal baselines are accepted spellings, and
// anything else fails Open/OpenKV with a wrapped ErrBadScheme.
func TestSchemeValidation(t *testing.T) {
	cases := []struct {
		scheme string
		ok     bool
	}{
		{"", true}, // default fast+
		{"fast+", true},
		{"FAST+", true},
		{"Fast", true},
		{"fast", true},
		{"wal", true},
		{"WAL", true},
		{"nvwal", true},
		{"NVWAL", true},
		{"NvWal", true},
		{"journal", true},
		{"Journal", true},
		{"JOURNAL", true},
		{"lsm", false},
		{"fast++", false},
		{"fast plus", false},
		{"wal ", false}, // no trimming: exact names only
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("kv_%q", tc.scheme), func(t *testing.T) {
			kv, err := OpenKV(Options{Scheme: tc.scheme})
			if tc.ok {
				if err != nil {
					t.Fatalf("OpenKV(%q) failed: %v", tc.scheme, err)
				}
				kv.Close()
				return
			}
			if !errors.Is(err, ErrBadScheme) {
				t.Fatalf("OpenKV(%q): want ErrBadScheme, got %v", tc.scheme, err)
			}
		})
	}
	// The SQL facade and the sharded engine share the constructors; spot-check
	// that both surface the same typed error.
	if _, err := Open(Options{Scheme: "btrfs"}); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("Open: want ErrBadScheme, got %v", err)
	}
	if _, err := OpenKV(Options{Scheme: "btrfs", Shards: 4}); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("sharded OpenKV: want ErrBadScheme, got %v", err)
	}
}

func TestDBCrashReopen(t *testing.T) {
	db, err := Open(Options{Scheme: SchemeFASTPlus, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 1; i <= 50; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	db.Crash(CrashOptions{Seed: 1, EvictProb: 0.5})
	if err := db.Reopen(); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0].AsInt() != 50 {
		t.Fatalf("recovered %v rows, want 50", rows[0][0])
	}
}

func TestKVBasics(t *testing.T) {
	kv, err := OpenKV(Options{Scheme: SchemeFASTPlus, PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 300; i++ {
		if err := kv.Insert([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := kv.Get([]byte("k00042"))
	if err != nil || !ok || string(v) != "v42" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	if err := kv.Put([]byte("k00042"), []byte("patched")); err != nil {
		t.Fatal(err)
	}
	v, _, _ = kv.Get([]byte("k00042"))
	if string(v) != "patched" {
		t.Fatalf("after put: %q", v)
	}
	if err := kv.Delete([]byte("k00042")); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := kv.Get([]byte("k00042")); ok {
		t.Fatal("deleted key present")
	}
	n, err := kv.Count()
	if err != nil || n != 299 {
		t.Fatalf("count = %d (%v)", n, err)
	}
	var seen int
	if err := kv.Scan([]byte("k00100"), []byte("k00109"), func(k, v []byte) bool {
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Fatalf("range scan saw %d", seen)
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestKVBatchAtomicity(t *testing.T) {
	kv, err := OpenKV(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	// A failing batch leaves nothing behind.
	boom := fmt.Errorf("boom")
	err = kv.Batch(func(tx BatchTx) error {
		if err := tx.Insert([]byte("a"), []byte("1")); err != nil {
			return err
		}
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	if _, ok, _ := kv.Get([]byte("a")); ok {
		t.Fatal("aborted batch visible")
	}
	// A successful batch commits all operations together.
	if err := kv.Batch(func(tx BatchTx) error {
		for i := 0; i < 5; i++ {
			if err := tx.Insert([]byte{byte('a' + i)}, []byte{byte(i)}); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	n, _ := kv.Count()
	if n != 5 {
		t.Fatalf("count = %d", n)
	}
}

func TestKVCrashReopen(t *testing.T) {
	kv, err := OpenKV(Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 100; i++ {
		if err := kv.Insert([]byte(fmt.Sprintf("k%04d", i)), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	kv.Crash(CrashOptions{Seed: 9, EvictProb: 0.3})
	if err := kv.ReopenKV(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
	n, _ := kv.Count()
	if n != 100 {
		t.Fatalf("recovered %d keys", n)
	}
}

func TestSnapshotSaveLoadDB(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/db.fasp"
	db, err := Open(Options{Scheme: SchemeFASTPlus, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
	for i := 1; i <= 60; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'row-%d')`, i, i))
	}
	if err := db.Save(path); err != nil {
		t.Fatal(err)
	}
	// "New process": load the snapshot on a fresh simulated machine.
	db2, err := OpenSnapshot(path, Options{PMReadNS: 600, PMWriteNS: 600})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db2.Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows[0][0].AsInt() != 60 {
		t.Fatalf("count = %v err = %v", rows, err)
	}
	rows, _ = db2.Query(`SELECT v FROM t WHERE id = 33`)
	if rows[0][0].AsText() != "row-33" {
		t.Fatalf("row = %v", rows)
	}
	// Scheme geometry came from the snapshot.
	if db2.SchemeName() != "FAST+" {
		t.Fatalf("scheme = %s", db2.SchemeName())
	}
}

func TestSnapshotSaveLoadKV(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/kv.fasp"
	kv, err := OpenKV(Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 150; i++ {
		if err := kv.Insert([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Save(path); err != nil {
		t.Fatal(err)
	}
	kv2, err := OpenSnapshotKV(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if err := kv2.Validate(); err != nil {
		t.Fatal(err)
	}
	n, _ := kv2.Count()
	if n != 150 {
		t.Fatalf("count = %d", n)
	}
	v, ok, _ := kv2.Get([]byte("k0077"))
	if !ok || string(v) != "v77" {
		t.Fatalf("get = %q %v", v, ok)
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/junk"
	if err := os.WriteFile(path, []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(path, Options{}); err == nil {
		t.Fatal("no error for garbage snapshot")
	}
	if _, err := OpenSnapshot(dir+"/missing", Options{}); err == nil {
		t.Fatal("no error for missing file")
	}
}

// TestConcurrentFacadeAccess exercises the facade mutex: many goroutines
// hammer one KV store; the result must match a serial reference count.
func TestConcurrentFacadeAccess(t *testing.T) {
	kv, err := OpenKV(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				if err := kv.Insert(key, []byte("v")); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				if _, ok, err := kv.Get(key); err != nil || !ok {
					t.Errorf("get: %v %v", ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	n, err := kv.Count()
	if err != nil || n != workers*perWorker {
		t.Fatalf("count = %d (%v), want %d", n, err, workers*perWorker)
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitTxnCrashRollsBack: a power failure before COMMIT erases the
// whole explicit transaction, across every scheme.
func TestExplicitTxnCrashRollsBack(t *testing.T) {
	for _, scheme := range []string{SchemeFASTPlus, SchemeFAST, SchemeNVWAL, SchemeWAL, SchemeJournal} {
		t.Run(scheme, func(t *testing.T) {
			db, err := Open(Options{Scheme: scheme, PageSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`)
			db.MustExec(`INSERT INTO t VALUES (1, 'committed')`)
			db.MustExec(`BEGIN`)
			for i := 2; i <= 20; i++ {
				db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, 'torn')`, i))
			}
			// Power fails before COMMIT.
			db.Crash(CrashOptions{Seed: 4, EvictProb: 0.5})
			if err := db.Reopen(); err != nil {
				t.Fatal(err)
			}
			rows, err := db.Query(`SELECT COUNT(*) FROM t`)
			if err != nil {
				t.Fatal(err)
			}
			if rows[0][0].AsInt() != 1 {
				t.Fatalf("recovered %v rows, want only the committed one", rows[0][0])
			}
			rows, _ = db.Query(`SELECT v FROM t WHERE id = 1`)
			if rows[0][0].AsText() != "committed" {
				t.Fatal("committed row damaged")
			}
		})
	}
}

func TestKVScanReverse(t *testing.T) {
	kv, err := OpenKV(Options{PageSize: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 50; i++ {
		if err := kv.Insert([]byte(fmt.Sprintf("k%03d", i)), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	if err := kv.ScanReverse([]byte("k010"), []byte("k014"), func(k, _ []byte) bool {
		got = append(got, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != "k014" || got[4] != "k010" {
		t.Fatalf("reverse = %v", got)
	}
}

// TestDBCatalog: the catalog accessors report what Exec created, a
// refused form fails with sql.ErrUnsupported, and a parse error comes back
// from Exec rather than panicking.
func TestDBCatalog(t *testing.T) {
	db, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(`CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT)`)
	if _, err := db.Exec(`CREATE INDEX users_name ON users (name)`); !errors.Is(err, sql.ErrUnsupported) {
		t.Fatalf("CREATE INDEX: %v, want sql.ErrUnsupported", err)
	}
	db.MustExec(`CREATE TABLE orders (id INTEGER PRIMARY KEY, total INTEGER)`)
	tables, err := db.Tables()
	if err != nil || len(tables) != 2 || !slices.Contains(tables, "users") || !slices.Contains(tables, "orders") {
		t.Fatalf("tables = %v (%v)", tables, err)
	}
	schema, err := db.Schema("users")
	if err != nil || !strings.Contains(schema, "users") || !strings.Contains(strings.ToUpper(schema), "CREATE TABLE") {
		t.Fatalf("schema = %q (%v)", schema, err)
	}
	if _, err := db.Schema("missing"); err == nil {
		t.Fatal("schema of a missing table")
	}
	if _, err := db.Exec(`SELEKT 1`); err == nil {
		t.Fatal("no error for a malformed statement")
	}
}

// TestStoreConstructorCallers: Open, OpenSnapshot and OpenKV's shards
// build their simulated machine and store through one constructor, so each
// gets the requested scheme on a machine with the requested latencies and
// cache bound, and its store lives on the machine the facade reports.
func TestStoreConstructorCallers(t *testing.T) {
	for _, name := range []string{SchemeFASTPlus, SchemeFAST, SchemeNVWAL, SchemeWAL, SchemeJournal} {
		t.Run(name, func(t *testing.T) {
			machine := Options{PMReadNS: 500, PMWriteNS: 700, CacheBytes: 1 << 20}
			opts := machine
			opts.Scheme = strings.ToUpper(name)
			opts.PageSize = 1024
			opts.MaxPages = 512
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`)
			path := filepath.Join(t.TempDir(), "db.fasp")
			if err := db.Save(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := OpenSnapshot(path, machine)
			if err != nil {
				t.Fatal(err)
			}
			if tables, err := loaded.Tables(); err != nil || len(tables) != 1 {
				t.Fatalf("loaded tables = %v (%v)", tables, err)
			}
			kv, err := OpenKV(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			if loaded.System() == db.System() {
				t.Fatal("a loaded snapshot shares the saving DB's machine")
			}
			want := db.System().Latencies()
			if want.PMRead != 500 || want.PMWrite != 700 || want.CacheBytes != 1<<20 {
				t.Fatalf("Open built latencies %+v", want)
			}
			for _, c := range []struct {
				caller string
				sys    *pmem.System
				store  pager.Store
			}{
				{"Open", db.System(), db.RawStore()},
				{"OpenSnapshot", loaded.System(), loaded.RawStore()},
				{"OpenKV", kv.System(), kv.RawStore()},
			} {
				if got := c.store.Name(); got != db.SchemeName() {
					t.Errorf("%s: scheme %s, want %s", c.caller, got, db.SchemeName())
				}
				if got := c.store.PageSize(); got != 1024 {
					t.Errorf("%s: page size %d", c.caller, got)
				}
				if c.store.Sys() != c.sys {
					t.Errorf("%s: the store is not on the reported machine", c.caller)
				}
				if got := c.sys.Latencies(); got != want {
					t.Errorf("%s: latencies %+v, want %+v", c.caller, got, want)
				}
			}
		})
	}
}

// TestKVSubmit: a write set of several requests spread over every shard
// goes in as one Submit; per-op verdicts come back aligned with the ops, in
// request order, and every applied write is readable afterwards.
func TestKVSubmit(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 3, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Insert(k(0), v(0)); err != nil {
		t.Fatal(err)
	}
	ops := make([]Op, 60)
	busy := make([]bool, kv.Shards())
	for i := range ops {
		si := kv.ShardOf(k(i))
		if si < 0 || si >= kv.Shards() || kv.ShardOf(k(i)) != si {
			t.Fatalf("ShardOf(%q) = %d", k(i), si)
		}
		busy[si] = true
		ops[i] = Op{Kind: OpInsert, Key: k(i), Val: v(i)}
	}
	for si, b := range busy {
		if !b {
			t.Fatalf("no op routes to shard %d", si)
		}
	}
	errs := make([]error, len(ops))
	var sp Submission
	kv.Submit(&sp, ops, errs, []int32{20, 20, 20})
	for i, op := range ops {
		dup := bytes.Equal(op.Key, k(0))
		if (errs[i] != nil) != dup {
			t.Fatalf("op %d (%q): err %v", i, op.Key, errs[i])
		}
	}
	for i := range ops {
		if got, ok, err := kv.Get(k(i)); err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("get %d = %q %v %v", i, got, ok, err)
		}
	}
	if err := kv.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestKVSubmitShard: one blocking submission on a shard's writer applies
// its ops in order and reports logical failures per op.
func TestKVSubmitShard(t *testing.T) {
	kv, err := OpenKV(Options{Shards: 2, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	si := kv.ShardOf(k(7))
	ops := []Op{
		{Kind: OpInsert, Key: k(7), Val: v(7)},
		{Kind: OpInsert, Key: k(7), Val: v(8)}, // duplicate
		{Kind: OpUpdate, Key: k(7), Val: []byte("updated")},
	}
	errs := make([]error, len(ops))
	kv.SubmitShard(si, ops, errs)
	if errs[0] != nil || errs[1] == nil || errs[2] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if got, ok, err := kv.Get(k(7)); err != nil || !ok || string(got) != "updated" {
		t.Fatalf("get = %q %v %v", got, ok, err)
	}
	del := []Op{{Kind: OpDelete, Key: k(7)}, {Kind: OpDelete, Key: k(7)}}
	kv.SubmitShard(si, del, errs[:2])
	if errs[0] != nil || errs[1] == nil {
		t.Fatalf("delete errs = %v", errs[:2])
	}
	if n, err := kv.Count(); err != nil || n != 0 {
		t.Fatalf("count = %d (%v)", n, err)
	}
}

// TestKVGetInto: every read appends into the caller's buffer, so a recycled
// buffer with room is reused.
func TestKVGetInto(t *testing.T) {
	kv, err := OpenKV(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 30; i++ {
		if err := kv.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 64)
	for i := 0; i < 30; i++ {
		got, ok, err := kv.GetInto(k(i), buf)
		if err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("get %d = %q %v %v", i, got, ok, err)
		}
		if &got[0] != &buf[:1][0] {
			t.Fatalf("get %d did not reuse the caller's buffer", i)
		}
	}
	if got, ok, err := kv.GetInto([]byte("absent"), buf); err != nil || ok {
		t.Fatalf("absent key = %q %v %v", got, ok, err)
	}
}

// TestKVScanLimit: a limited scan yields the first limit pairs of the
// merged order in either direction, on one shard and on several.
func TestKVScanLimit(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			kv, err := OpenKV(Options{Shards: shards, PageSize: 512})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			for i := 0; i < 50; i++ {
				if err := kv.Insert(k(i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			scan := func(lo, hi []byte, reverse bool, limit int) []int {
				var got []int
				if err := kv.ScanLimit(lo, hi, reverse, limit, func(key, val []byte) bool {
					var i int
					fmt.Sscanf(string(key), "key%d", &i)
					if !bytes.Equal(val, v(i)) {
						t.Fatalf("key %q has value %q", key, val)
					}
					got = append(got, i)
					return true
				}); err != nil {
					t.Fatal(err)
				}
				return got
			}
			if got := scan(nil, nil, false, 7); !slices.Equal(got, []int{0, 1, 2, 3, 4, 5, 6}) {
				t.Fatalf("forward = %v", got)
			}
			if got := scan(nil, nil, true, 3); !slices.Equal(got, []int{49, 48, 47}) {
				t.Fatalf("reverse = %v", got)
			}
			if got := scan(k(20), k(23), false, 10); !slices.Equal(got, []int{20, 21, 22, 23}) {
				t.Fatalf("bounded = %v", got)
			}
			if got := scan(nil, nil, false, 0); len(got) != 50 {
				t.Fatalf("unlimited scan saw %d pairs", len(got))
			}
		})
	}
}

// TestKVClosed: Close flips Closed, writes after it fail with ErrClosed,
// and reads keep working.
func TestKVClosed(t *testing.T) {
	kv, err := OpenKV(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Put(k(1), v(1)); err != nil {
		t.Fatal(err)
	}
	if kv.Closed() {
		t.Fatal("Closed before Close")
	}
	kv.Close()
	if !kv.Closed() {
		t.Fatal("not Closed after Close")
	}
	if err := kv.Put(k(2), v(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if got, ok, err := kv.Get(k(1)); err != nil || !ok || !bytes.Equal(got, v(1)) {
		t.Fatalf("get after close = %q %v %v", got, ok, err)
	}
}
