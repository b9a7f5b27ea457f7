package scheme_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/wal"
)

func TestParse(t *testing.T) {
	for _, s := range scheme.All {
		for _, name := range []string{s.String(), strings.ToLower(s.String())} {
			if got, err := scheme.Parse(name); err != nil || got != s {
				t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, s)
			}
		}
	}
	for _, bad := range []string{"", "lsm", "fast++", "fast plus", "wal "} {
		if _, err := scheme.Parse(bad); !errors.Is(err, scheme.ErrUnknown) {
			t.Errorf("Parse(%q): want ErrUnknown, got %v", bad, err)
		}
	}
}

// TestCreateReattach: every scheme's store names itself by the table,
// and inserts committed before a crash that evicts nothing are there after
// Reattach. NVWAL and WAL keep committed pages in their log until a
// checkpoint, so only their recovery puts the keys back.
func TestCreateReattach(t *testing.T) {
	g := scheme.Geometry{PageSize: 512, MaxPages: 256}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 24) }
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			st := s.Create(sys, g)
			if st.Name() != s.String() {
				t.Fatalf("created store is %q", st.Name())
			}
			tree := btree.New(st)
			for i := 0; i < 40; i++ {
				if err := tree.Insert(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			sys.Crash(pmem.EvictNone)
			st2, err := s.Reattach(st.Arena(), g)
			if err != nil {
				t.Fatal(err)
			}
			if st2.Name() != s.String() {
				t.Fatalf("reattached store is %q", st2.Name())
			}
			tree = btree.New(st2)
			for i := 0; i < 40; i++ {
				v, ok, err := tree.Get(key(i))
				if err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d after reattach: %q %v %v", i, v, ok, err)
				}
			}
		})
	}
}

// TestReadOnlyCommitWritesNothing: in every scheme a transaction that only
// reads commits by closing — no flush, no write-back, no fence and no crash
// point — and is counted as a read-only commit; under FAST and FAST+ the
// in-place, logged and read-only commits still sum to Commits. A write
// transaction after it commits and survives a crash as usual.
func TestReadOnlyCommitWritesNothing(t *testing.T) {
	g := scheme.Geometry{PageSize: 512, MaxPages: 256}
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := func(i int) []byte { return bytes.Repeat([]byte{byte('a' + i%26)}, 24) }
	readOnly := func(t *testing.T, st scheme.Store) int64 {
		switch st := st.(type) {
		case *fast.Store:
			s := st.Stats()
			if sum := s.InPlaceCommits + s.LogCommits + s.ReadOnlyCommits; sum != s.Commits {
				t.Fatalf("in-place %d + logged %d + read-only %d = %d commits, Commits = %d",
					s.InPlaceCommits, s.LogCommits, s.ReadOnlyCommits, sum, s.Commits)
			}
			return s.ReadOnlyCommits
		case *wal.Store:
			return st.Stats().ReadOnlyCommits
		}
		t.Fatalf("store %T has no read-only commit count", st)
		return 0
	}
	for _, s := range scheme.All {
		t.Run(s.String(), func(t *testing.T) {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			st := s.Create(sys, g)
			tree := btree.New(st)
			for i := 0; i < 40; i++ {
				if err := tree.Insert(key(i), val(i)); err != nil {
					t.Fatal(err)
				}
			}
			pm0, fences0, points0 := st.Arena().Stats(), sys.Fences(), sys.CrashPoints()
			ro0 := readOnly(t, st)
			tx, err := tree.Begin()
			if err != nil {
				t.Fatal(err)
			}
			for _, i := range []int{0, 17, 39, 40} {
				v, ok, err := tx.Get(key(i))
				if err != nil || ok != (i < 40) || (ok && !bytes.Equal(v, val(i))) {
					t.Fatalf("Get key %d: %q %v %v", i, v, ok, err)
				}
			}
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
			d := st.Arena().Stats().Delta(pm0)
			if d.FlushCalls != 0 || d.LineWritebacks != 0 || d.WordStores != 0 {
				t.Errorf("read-only commit flushed %d, wrote back %d lines, stored %d words; want 0",
					d.FlushCalls, d.LineWritebacks, d.WordStores)
			}
			if f, p := sys.Fences()-fences0, sys.CrashPoints()-points0; f != 0 || p != 0 {
				t.Errorf("read-only commit fenced %d times and ran %d crash points; want 0", f, p)
			}
			if got := readOnly(t, st) - ro0; got != 1 {
				t.Errorf("read-only commits rose by %d, want 1", got)
			}

			if err := tree.Insert(key(40), val(40)); err != nil {
				t.Fatal(err)
			}
			if got := readOnly(t, st) - ro0; got != 1 {
				t.Errorf("a write transaction counted as read-only (%d)", got-1)
			}
			sys.Crash(pmem.EvictNone)
			st2, err := s.Reattach(st.Arena(), g)
			if err != nil {
				t.Fatal(err)
			}
			tree = btree.New(st2)
			for i := 0; i <= 40; i++ {
				v, ok, err := tree.Get(key(i))
				if err != nil || !ok || !bytes.Equal(v, val(i)) {
					t.Fatalf("key %d after reattach: %q %v %v", i, v, ok, err)
				}
			}
		})
	}
}
