package fast

import (
	"bytes"
	"errors"
	"fasp/internal/htm"
	"testing"

	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

func newStore(t testing.TB, variant Variant) (*pmem.System, *Store) {
	t.Helper()
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	return sys, Create(sys, Config{PageSize: 512, MaxPages: 256, Variant: variant})
}

func TestCreateAndAttach(t *testing.T) {
	_, st := newStore(t, InPlaceCommit)
	if st.Name() != "FAST+" || st.PageSize() != 512 {
		t.Fatalf("name=%s pagesize=%d", st.Name(), st.PageSize())
	}
	st2, err := Attach(st.Arena(), Config{PageSize: 512, MaxPages: 256, Variant: InPlaceCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if st2.Meta().NPages != 1 {
		t.Fatalf("meta = %+v", st2.Meta())
	}
}

func TestAttachRejectsPageSizeMismatch(t *testing.T) {
	_, st := newStore(t, InPlaceCommit)
	if _, err := Attach(st.Arena(), Config{PageSize: 1024, MaxPages: 256}); !errors.Is(err, pager.ErrCorrupt) {
		t.Fatalf("err = %v", err)
	}
}

func TestSingleWriterEnforced(t *testing.T) {
	_, st := newStore(t, InPlaceCommit)
	tx, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Begin(); !errors.Is(err, pager.ErrTxnActive) {
		t.Fatalf("second begin: %v", err)
	}
	tx.Rollback()
	tx2, err := st.Begin()
	if err != nil {
		t.Fatalf("begin after rollback: %v", err)
	}
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocFreeReuseAcrossTxns(t *testing.T) {
	_, st := newStore(t, InPlaceCommit)
	// Allocate two pages and commit.
	tx, _ := st.Begin()
	no1, p1, err := tx.AllocPage(slotted.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if err := p1.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx.SetRoot(no1)
	no2, _, err := tx.AllocPage(slotted.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Meta().NPages != 3 {
		t.Fatalf("npages = %d", st.Meta().NPages)
	}
	// Free the second page; it returns through the persistent stack.
	tx2, _ := st.Begin()
	tx2.FreePage(no2)
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Meta().FreeCount != 1 {
		t.Fatalf("free count = %d", st.Meta().FreeCount)
	}
	// The next allocation reuses it instead of growing the space.
	tx3, _ := st.Begin()
	no3, _, err := tx3.AllocPage(slotted.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	if no3 != no2 {
		t.Fatalf("alloc = page %d, want reused %d", no3, no2)
	}
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Meta().NPages != 3 || st.Meta().FreeCount != 0 {
		t.Fatalf("meta after reuse = %+v", st.Meta())
	}
}

func TestAbortedAllocationDoesNotLeakPages(t *testing.T) {
	_, st := newStore(t, InPlaceCommit)
	before := st.Meta()
	tx, _ := st.Begin()
	if _, _, err := tx.AllocPage(slotted.TypeLeaf); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if st.Meta() != before {
		t.Fatalf("meta changed by aborted txn: %+v -> %+v", before, st.Meta())
	}
}

func TestPageSpaceExhaustion(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(120, 120))
	st := Create(sys, Config{PageSize: 512, MaxPages: 4, Variant: InPlaceCommit})
	tx, _ := st.Begin()
	for i := 0; i < 3; i++ {
		if _, _, err := tx.AllocPage(slotted.TypeLeaf); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, _, err := tx.AllocPage(slotted.TypeLeaf); !errors.Is(err, pager.ErrFull) {
		t.Fatalf("err = %v, want ErrFull", err)
	}
	tx.Rollback()
}

func TestInPlaceEligibilityBoundaries(t *testing.T) {
	_, st := newStore(t, InPlaceCommit)
	// Bootstrap a root leaf (logged commit: allocation changes meta).
	tx, _ := st.Begin()
	rootNo, root, err := tx.AllocPage(slotted.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	tx.SetRoot(rootNo)
	if err := root.Insert([]byte("k0"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().InPlaceCommits != 0 {
		t.Fatal("allocation txn must not commit in place")
	}
	// A plain single-leaf insert commits in place.
	tx2, _ := st.Begin()
	p, err := tx2.Page(rootNo)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Insert([]byte("k1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx2.OpEnd()
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	if st.Stats().InPlaceCommits != 1 {
		t.Fatalf("stats = %+v", st.Stats())
	}
	// Marking defragmentation forces the logged path.
	tx3, _ := st.Begin()
	p3, _ := tx3.Page(rootNo)
	if err := p3.Insert([]byte("k2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx3.Defragged()
	tx3.OpEnd()
	if err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats().InPlaceCommits; got != 1 {
		t.Fatalf("defragged txn committed in place (count %d)", got)
	}
}

func TestLeafCellCap(t *testing.T) {
	_, plus := newStore(t, InPlaceCommit)
	if plus.LeafCellCap() != slotted.MaxInPlaceCells {
		t.Fatalf("FAST+ cap = %d", plus.LeafCellCap())
	}
	_, plain := newStore(t, SlotHeaderLogging)
	if plain.LeafCellCap() != 0 {
		t.Fatalf("FAST cap = %d", plain.LeafCellCap())
	}
}

func TestRecoverReplaysCommittedLog(t *testing.T) {
	sys, st := newStore(t, SlotHeaderLogging)
	// Build one committed transaction, crashing right after the commit
	// mark but before checkpointing finishes.
	tx, _ := st.Begin()
	rootNo, root, err := tx.AllocPage(slotted.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	tx.SetRoot(rootNo)
	if err := root.Insert([]byte("key"), []byte("value")); err != nil {
		t.Fatal(err)
	}
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	sys.Crash(pmem.EvictNone)
	st2, err := Attach(st.Arena(), Config{PageSize: 512, MaxPages: 256, Variant: SlotHeaderLogging})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	if st2.Meta().Root != rootNo {
		t.Fatalf("root = %d, want %d", st2.Meta().Root, rootNo)
	}
	tx2, _ := st2.Begin()
	p, err := tx2.Page(rootNo)
	if err != nil {
		t.Fatal(err)
	}
	i, found := p.Search([]byte("key"))
	if !found || !bytes.Equal(p.Value(i), []byte("value")) {
		t.Fatal("committed record lost across crash")
	}
	tx2.Rollback()
}

// TestRepairedHeaderNotRelogged: a lazy free-list repair persists the
// repaired header itself, so a transaction that only reads the repaired page
// neither logs, checkpoints nor installs it — the header it would write is
// the one PM holds after the repair — and under FAST+ the page is not a
// second page of the unit that writes another leaf, which therefore still
// commits in place.
func TestRepairedHeaderNotRelogged(t *testing.T) {
	for _, v := range []Variant{SlotHeaderLogging, InPlaceCommit} {
		t.Run(v.String(), func(t *testing.T) { testRepairedHeaderNotRelogged(t, v) })
	}
}

func testRepairedHeaderNotRelogged(t *testing.T, v Variant) {
	cfg := Config{PageSize: 512, MaxPages: 256, Variant: v}
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := Create(sys, cfg)
	tx, _ := st.Begin()
	a, pa, _ := tx.AllocPage(slotted.TypeLeaf)
	b, pb, _ := tx.AllocPage(slotted.TypeLeaf)
	for _, k := range []string{"a1", "a2", "a3"} {
		if err := pa.Insert([]byte(k), bytes.Repeat([]byte{1}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pb.Insert([]byte("b1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, _ = st.Begin()
	pa, _ = tx.Page(a)
	if err := pa.Delete(1); err != nil { // a2, not at the content pointer: a free block
		t.Fatal(err)
	}
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// The damage a crash between a commit and its free-block write leaves.
	st.Arena().StoreU16(cfg.pageBase(a)+8, 0)
	st.Arena().Flush(cfg.pageBase(a)+8, 2)
	st, err := Attach(st.Arena(), cfg)
	if err == nil {
		err = st.Recover()
	}
	if err != nil {
		t.Fatal(err)
	}

	s0 := st.Stats()
	tx, _ = st.Begin()
	if _, err := tx.Page(a); err != nil {
		t.Fatal(err)
	}
	pb, _ = tx.Page(b)
	if err := pb.Update(0, []byte("w")); err != nil {
		t.Fatal(err)
	}
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.FreeListFixes != 1 {
		t.Fatalf("%d repairs, want 1", s.FreeListFixes)
	}
	frames, installs, inPlace := s.LoggedFrames-s0.LoggedFrames, s.InPlaceInstalls-s0.InPlaceInstalls, s.InPlaceCommits-s0.InPlaceCommits
	switch {
	case v == SlotHeaderLogging && frames != 1:
		t.Fatalf("%d frames logged, want 1 (page %d only)", frames, b)
	case v == InPlaceCommit && (frames != 0 || installs != 1 || inPlace != 1):
		t.Fatalf("%d frames logged, %d headers installed, %d in-place commits; want 0, 1 and 1 (page %d only)", frames, installs, inPlace, b)
	}
}

func TestStatsAccumulate(t *testing.T) {
	_, st := newStore(t, SlotHeaderLogging)
	tx, _ := st.Begin()
	no, p, _ := tx.AllocPage(slotted.TypeLeaf)
	tx.SetRoot(no)
	_ = p.Insert([]byte("a"), []byte("b"))
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.Commits != 1 || s.LogCommits != 1 || s.LoggedFrames == 0 || s.LoggedBytes == 0 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestHTMFailureFallsBackToLogging: if best-effort RTM never succeeds,
// FAST+ must still commit — through the slot-header log — exactly as the
// paper's fallback handler prescribes (§3.2 footnote 1).
func TestHTMFailureFallsBackToLogging(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	hcfg := htm.DefaultConfig()
	hcfg.MaxRetries = 3
	hcfg.InjectAbort = func() bool { return true } // RTM never commits
	st := Create(sys, Config{PageSize: 512, MaxPages: 256, Variant: InPlaceCommit, HTM: hcfg})

	tx, _ := st.Begin()
	no, p, err := tx.AllocPage(slotted.TypeLeaf)
	if err != nil {
		t.Fatal(err)
	}
	tx.SetRoot(no)
	_ = p.Insert([]byte("k0"), []byte("v"))
	tx.OpEnd()
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// A single-leaf insert would normally go in place; with HTM broken it
	// must fall back and still commit durably.
	tx2, _ := st.Begin()
	p2, _ := tx2.Page(no)
	if err := p2.Insert([]byte("k1"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	tx2.OpEnd()
	if err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.InPlaceCommits != 0 || s.LogCommits != 2 {
		t.Fatalf("stats = %+v (want all commits logged)", s)
	}
	// Durable: survive a crash.
	sys.Crash(pmem.EvictNone)
	st2, err := Attach(st.Arena(), Config{PageSize: 512, MaxPages: 256, Variant: InPlaceCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Recover(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := st2.Begin()
	p3, err := tx3.Page(no)
	if err != nil {
		t.Fatal(err)
	}
	if _, found := p3.Search([]byte("k1")); !found {
		t.Fatal("fallback-committed record lost")
	}
	tx3.Rollback()
}
