package fasp

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
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
	if _, err := OpenHash(Options{Scheme: "btrfs"}, 8); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("OpenHash: want ErrBadScheme, got %v", err)
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

func TestHashBasics(t *testing.T) {
	h, err := OpenHash(Options{PageSize: 512}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := h.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok, err := h.Get([]byte("k0042"))
	if err != nil || !ok || string(v) != "v42" {
		t.Fatalf("get = %q %v %v", v, ok, err)
	}
	if err := h.Delete([]byte("k0042")); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Len(); n != 199 {
		t.Fatalf("len = %d", n)
	}
	h.Crash(CrashOptions{Seed: 5, EvictProb: 0.5})
	if err := h.ReopenHash(); err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Len(); n != 199 {
		t.Fatalf("len after recovery = %d", n)
	}
	if err := h.Rehash(64); err != nil {
		t.Fatal(err)
	}
	if n, _ := h.Len(); n != 199 {
		t.Fatalf("len after rehash = %d", n)
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

func TestSnapshotSaveLoadHash(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/h.fasp"
	h, err := OpenHash(Options{PageSize: 512}, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := h.Put([]byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.Save(path); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenSnapshotHash(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, _ := h2.Len(); n != 100 {
		t.Fatalf("len = %d", n)
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
