package fasp

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fasp/internal/pager"
	"fasp/internal/shard"
)

// TestSnapshotRoundTripAllSchemes: insert → save → load on every commit
// scheme; all committed data — including a just-committed batch whose
// pages are still in the volatile cache — survives the round trip, because
// Save captures the durable medium and loading runs crash recovery.
func TestSnapshotRoundTripAllSchemes(t *testing.T) {
	for _, scheme := range []string{SchemeFASTPlus, SchemeFAST, SchemeNVWAL, SchemeWAL, SchemeJournal} {
		t.Run(scheme, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "kv.fasp")
			// A small cache keeps plenty of committed-but-unflushed pages
			// at save time, so the recovery path is genuinely exercised.
			kv, err := OpenKV(Options{Scheme: scheme, PageSize: 1024, CacheBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			const n = 200
			for i := 0; i < n; i++ {
				if err := kv.Insert(k(i), v(i)); err != nil {
					t.Fatal(err)
				}
			}
			// One committed multi-op transaction right before the save.
			if err := kv.Batch(func(tx BatchTx) error {
				for i := n; i < n+8; i++ {
					if err := tx.Insert(k(i), v(i)); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				t.Fatal(err)
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
			if kv2.SchemeName() == "" {
				t.Fatal("no scheme name after load")
			}
			if c, err := kv2.Count(); err != nil || c != n+8 {
				t.Fatalf("count = %d, %v; want %d", c, err, n+8)
			}
			for i := 0; i < n+8; i++ {
				got, ok, err := kv2.Get(k(i))
				if err != nil || !ok || !bytes.Equal(got, v(i)) {
					t.Fatalf("key %d: %q %v %v", i, got, ok, err)
				}
			}
		})
	}
}

// TestSnapshotSaveAtomic: Save never leaves temp droppings, overwrites an
// existing snapshot only after the new one is durable, and a failing save
// cannot destroy anything.
func TestSnapshotSaveAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "kv.fasp")
	kv, err := OpenKV(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 50; i++ {
		if err := kv.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Save(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with more data; the file is replaced atomically.
	for i := 50; i < 80; i++ {
		if err := kv.Insert(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Save(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want 1", len(entries))
	}
	kv2, err := OpenSnapshotKV(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	if c, _ := kv2.Count(); c != 80 {
		t.Fatalf("count = %d", c)
	}
	// A save into a nonexistent directory fails before touching anything.
	if err := kv.Save(filepath.Join(dir, "no-such-dir", "kv.fasp")); err == nil {
		t.Fatal("save into missing directory succeeded")
	}
	if kv3, err := OpenSnapshotKV(path, Options{}); err != nil {
		t.Fatalf("original snapshot damaged by failed save: %v", err)
	} else if c, _ := kv3.Count(); c != 80 {
		t.Fatalf("original snapshot content damaged: count = %d", c)
	}
}

// TestSnapshotShardedRoundTrip: a sharded store saves a version-2 snapshot
// holding every shard's image; loading restores the partitioning, runs
// per-shard recovery, and yields the same contents.
func TestSnapshotShardedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skv.fasp")
	kv, err := OpenKV(Options{Shards: 4, MaxBatch: 16, PageSize: 1024, CacheBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	const n = 300
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = Op{Kind: OpInsert, Key: k(i), Val: v(i)}
	}
	for _, err := range kv.ApplyBatch(ops) {
		if err != nil {
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
	if !kv2.Sharded() || kv2.Shards() != 4 {
		t.Fatalf("Sharded=%v Shards=%d after load", kv2.Sharded(), kv2.Shards())
	}
	if err := kv2.Validate(); err != nil {
		t.Fatal(err)
	}
	if c, err := kv2.Count(); err != nil || c != n {
		t.Fatalf("count = %d, %v", c, err)
	}
	for i := 0; i < n; i++ {
		got, ok, err := kv2.Get(k(i))
		if err != nil || !ok || !bytes.Equal(got, v(i)) {
			t.Fatalf("key %d: %q %v %v", i, got, ok, err)
		}
	}
	// The loaded store keeps working: routing matches the saved hash.
	if err := kv2.Put(k(n), v(n)); err != nil {
		t.Fatal(err)
	}
	// Per-shard contents must be identical to the original partitioning.
	for i := 0; i < 4; i++ {
		var orig, loaded []string
		if err := kv.ShardScan(i, nil, nil, func(key, _ []byte) bool {
			orig = append(orig, string(key))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if err := kv2.ShardScan(i, nil, nil, func(key, _ []byte) bool {
			if string(key) != string(k(n)) {
				loaded = append(loaded, string(key))
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if strings.Join(orig, ",") != strings.Join(loaded, ",") {
			t.Fatalf("shard %d contents diverged after round trip", i)
		}
	}
}

// saveTestSnapshot builds a small sharded store and saves it, returning
// the snapshot bytes.
func saveTestSnapshot(t testing.TB, dir string, shards int) []byte {
	t.Helper()
	path := filepath.Join(dir, "seed.fasp")
	kv, err := OpenKV(Options{Shards: shards, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	for i := 0; i < 40; i++ {
		if err := kv.Put(k(i), v(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// writeRawSnapshot writes an arbitrary header + images through the same
// gzip+gob pipeline Save uses, for crafting corrupt-but-well-encoded files.
func writeRawSnapshot(t *testing.T, path string, hdr snapshotHeader, imgs [][]byte) {
	t.Helper()
	err := writeSnapshotAtomic(path, func(enc *gob.Encoder) error {
		if err := enc.Encode(hdr); err != nil {
			return err
		}
		for _, img := range imgs {
			if err := enc.Encode(img); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotCorruptionRejected: every damaged-file class is refused with
// ErrBadSnapshot — truncated stream, corrupted body, bad magic, and header
// fields no Save could have written (notably a zero shard count, which the
// restore loop would otherwise turn into a silently empty store).
func TestSnapshotCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	raw := saveTestSnapshot(t, dir, 2)
	goodHdr := snapshotHeader{
		Magic: snapshotMagic, Version: 2, Scheme: SchemeFASTPlus,
		PageSize: 1024, MaxPages: 16384, Shards: 2, MaxBatch: 64,
	}
	path := filepath.Join(dir, "corrupt.fasp")
	cases := []struct {
		name  string
		write func()
	}{
		{"truncated-gzip-header", func() { os.WriteFile(path, raw[:4], 0o644) }},
		{"truncated-mid-stream", func() { os.WriteFile(path, raw[:len(raw)/2], 0o644) }},
		{"flipped-byte-body", func() {
			bad := append([]byte(nil), raw...)
			bad[len(bad)*3/4] ^= 0x40
			os.WriteFile(path, bad, 0o644)
		}},
		{"bad-magic", func() {
			h := goodHdr
			h.Magic = "NOT-A-SNAPSHOT"
			writeRawSnapshot(t, path, h, nil)
		}},
		{"bad-version", func() {
			h := goodHdr
			h.Version = 9
			writeRawSnapshot(t, path, h, nil)
		}},
		{"zero-shard-count", func() {
			h := goodHdr
			h.Shards = 0
			writeRawSnapshot(t, path, h, nil)
		}},
		{"huge-shard-count", func() {
			h := goodHdr
			h.Shards = 1 << 20
			writeRawSnapshot(t, path, h, nil)
		}},
		{"huge-batch-bound", func() { // above shard.MaxBatchLimit
			h := goodHdr
			h.MaxBatch = 1 << 40
			writeRawSnapshot(t, path, h, nil)
		}},
		{"batch-bound-past-limit", func() {
			h := goodHdr
			h.MaxBatch = shard.MaxBatchLimit + 1
			writeRawSnapshot(t, path, h, nil)
		}},
		{"implausible-page-size", func() {
			h := goodHdr
			h.PageSize = 7
			writeRawSnapshot(t, path, h, nil)
		}},
		{"missing-shard-image", func() {
			writeRawSnapshot(t, path, goodHdr, [][]byte{make([]byte, 64)})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.write()
			kv, err := OpenSnapshotKV(path, Options{})
			if err == nil {
				kv.Close()
				t.Fatal("corrupt snapshot accepted")
			}
			if !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("error not tagged ErrBadSnapshot: %v", err)
			}
		})
	}
	// The pristine file still loads — the harness itself is sound.
	os.WriteFile(path, raw, 0o644)
	kv, err := OpenSnapshotKV(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if c, err := kv.Count(); err != nil || c != 40 {
		t.Fatalf("count = %d, %v", c, err)
	}
}

// FuzzSnapshotLoad: arbitrary bytes must either load into a store that
// validates or fail cleanly — never panic, never return a broken store.
func FuzzSnapshotLoad(f *testing.F) {
	dir := f.TempDir()
	raw := saveTestSnapshot(f, dir, 2)
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add([]byte("not a snapshot at all"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.fasp")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		kv, err := OpenSnapshotKV(path, Options{})
		if err != nil {
			return
		}
		defer kv.Close()
		if err := kv.Validate(); err != nil {
			t.Fatalf("loaded snapshot fails validation: %v", err)
		}
	})
}

// TestSnapshotVersionGates: single-store loaders refuse sharded (v2)
// snapshots instead of misreading them.
func TestSnapshotVersionGates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "skv.fasp")
	kv, err := OpenKV(Options{Shards: 2, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	if err := kv.Put([]byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := kv.Save(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSnapshot(path, Options{}); err == nil {
		t.Fatal("OpenSnapshot accepted a sharded snapshot")
	}
}

// TestOpenSnapshotRejectsBadImage: the single-image loader refuses a
// version-1 file whose header is sound but whose payload is not — no image,
// an image of the wrong size, a blank medium with no store on it — and one
// naming a scheme the library does not have.
func TestOpenSnapshotRejectsBadImage(t *testing.T) {
	db, err := Open(Options{PageSize: 1024, MaxPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	size := len(db.arena.MediumSnapshot())
	hdr := snapshotHeader{Magic: snapshotMagic, Version: 1, Scheme: SchemeFASTPlus, PageSize: 1024, MaxPages: 64}
	path := filepath.Join(t.TempDir(), "v1.fasp")
	cases := []struct {
		name   string
		scheme string
		imgs   [][]byte
		want   error
	}{
		{"missing-image", SchemeFASTPlus, nil, ErrBadSnapshot},
		{"wrong-size-image", SchemeFASTPlus, [][]byte{make([]byte, 64)}, ErrBadSnapshot},
		{"blank-image", SchemeFASTPlus, [][]byte{make([]byte, size)}, pager.ErrCorrupt},
		{"unknown-scheme", "lsm", [][]byte{make([]byte, size)}, ErrBadScheme},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := hdr
			h.Scheme = tc.scheme
			writeRawSnapshot(t, path, h, tc.imgs)
			if _, err := OpenSnapshot(path, Options{}); !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
	// The same header over the saved medium loads.
	writeRawSnapshot(t, path, hdr, [][]byte{db.arena.MediumSnapshot()})
	if _, err := OpenSnapshot(path, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotGeometryBoundedByImage: a header whose page space is at
// least as long as the image it carries is rejected with ErrBadSnapshot by
// both loaders, before the store's arena is sized from it — for a 1 MiB-page,
// 2^28-page header that arena would be 256 TiB.
func TestSnapshotGeometryBoundedByImage(t *testing.T) {
	small := make([]byte, 1024*64)
	path := filepath.Join(t.TempDir(), "geom.fasp")
	for _, tc := range []struct {
		name               string
		pageSize, maxPages int
	}{
		{"huge", 1 << 20, 1 << 28},
		{"equal", 1024, 64}, // pages exactly fill the image: no room for the log
	} {
		t.Run(tc.name, func(t *testing.T) {
			hdr := snapshotHeader{Magic: snapshotMagic, Version: 1, Scheme: SchemeFASTPlus,
				PageSize: tc.pageSize, MaxPages: tc.maxPages}
			writeRawSnapshot(t, path, hdr, [][]byte{small})
			if _, err := OpenSnapshot(path, Options{}); !errors.Is(err, ErrBadSnapshot) {
				t.Fatalf("OpenSnapshot: err = %v, want ErrBadSnapshot", err)
			}
			if kv, err := OpenSnapshotKV(path, Options{}); !errors.Is(err, ErrBadSnapshot) {
				if err == nil {
					kv.Close()
				}
				t.Fatalf("OpenSnapshotKV v1: err = %v, want ErrBadSnapshot", err)
			}
			hdr.Version, hdr.Shards, hdr.MaxBatch = 2, 2, 8
			writeRawSnapshot(t, path, hdr, [][]byte{small, small})
			if kv, err := OpenSnapshotKV(path, Options{}); !errors.Is(err, ErrBadSnapshot) {
				if err == nil {
					kv.Close()
				}
				t.Fatalf("OpenSnapshotKV v2: err = %v, want ErrBadSnapshot", err)
			}
		})
	}
}
