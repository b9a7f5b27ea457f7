package fast

import (
	"bytes"
	"fmt"
	"testing"

	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// TestTornCommitIsTruncated crashes a plain-FAST commit after its log header
// line reached PM and before one of its frame lines did, so PM holds a
// length, id and checksum whose frames are not all there. Recovery must
// discard that commit and clear its length. The transaction then runs again
// from the recovered state and appends byte-identical frames under the same
// id, but does not commit; after a crash that writes every dirty line back,
// PM holds exactly the image the torn commit sealed, except for the length
// word. Nothing may be replayed: a recovery that skips the truncate would
// find a length whose checksum now matches and commit a transaction that
// never committed.
func TestTornCommitIsTruncated(t *testing.T) {
	cfg := Config{PageSize: 512, MaxPages: 64, Variant: SlotHeaderLogging}
	const leaves = 6
	const logHeader = 40 // the log's header: magic, length, txid, checksum, reserved
	key := func(i int) []byte { return []byte(fmt.Sprintf("k%03d", i)) }
	val := bytes.Repeat([]byte{'v'}, 24)

	// setup commits one record in each of the leaves.
	setup := func() (*pmem.System, *Store) {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		st := Create(sys, cfg)
		tx, _ := st.Begin()
		for i := 0; i < leaves; i++ {
			no, p, err := tx.AllocPage(slotted.TypeLeaf)
			if err != nil || no != uint32(i+1) {
				t.Fatalf("leaf %d: page %d, %v", i, no, err)
			}
			if err := p.Insert(key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		tx.SetRoot(1)
		tx.OpEnd()
		if err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		return sys, st
	}
	// update adds a record to every leaf, which changes neither the
	// metadata nor the transaction id, and stages the headers in the log.
	update := func(st *Store) *Txn {
		ptx, err := st.Begin()
		if err != nil {
			t.Fatal(err)
		}
		tx := ptx.(*Txn)
		for i := 0; i < leaves; i++ {
			p, err := tx.Page(uint32(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Insert(key(100+i), val); err != nil {
				t.Fatal(err)
			}
		}
		tx.OpEnd()
		return tx
	}
	recovered := func(st *Store) *Store {
		st2, err := Attach(st.Arena(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := st2.Recover(); err != nil {
			t.Fatal(err)
		}
		return st2
	}
	// updated counts the leaves that hold the update's record.
	updated := func(st *Store) int {
		tx, _ := st.Begin()
		defer tx.Rollback()
		n := 0
		for i := 0; i < leaves; i++ {
			p, err := tx.Page(uint32(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			if _, found := p.Search(key(100 + i)); found {
				n++
			}
		}
		return n
	}

	// Find the first crash point of the commit after which PM holds a torn
	// commit when no unflushed line survives, and run the test from there.
	for k, done := int64(0), false; !done; k++ {
		sys, st := setup()
		tx := update(st)
		logLen := st.log.PendingBytes()
		span := logHeader + int(logLen)
		frames := st.Arena().Read(cfg.logBase()+logHeader, int(logLen)) // the frames the commit seals
		if logLen <= 2*pmem.CacheLineSize {
			t.Fatalf("the commit's frames take %d bytes; want three lines at least", logLen)
		}
		sys.CrashAfter(k)
		if !sys.RunToCrash(func() { _ = tx.Commit() }) {
			t.Fatal("no crash point of the commit leaves a torn log in PM")
		}
		sys.Crash(pmem.EvictNone)
		st2, err := Attach(st.Arena(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, isTorn := st2.log.Frames(); !isTorn {
			continue
		}
		done = true
		torn := st.Arena().MediumBytes(cfg.logBase(), span)
		if bytes.Equal(torn[logHeader:], frames) {
			t.Fatalf("crash@%d: every frame reached PM, yet the commit reads as torn", k)
		}

		st2 = recovered(st)
		if n := updated(st2); n != 0 {
			t.Fatalf("crash@%d: recovery of a torn commit replayed it into %d leaves", k, n)
		}
		if l := st2.Arena().MediumBytes(cfg.logBase()+8, 8); !bytes.Equal(l, make([]byte, 8)) {
			t.Errorf("crash@%d: recovery left the torn commit's length in PM: %x", k, l)
		}

		// Run the transaction again, without committing it.
		update(st2)
		if got := st2.log.PendingBytes(); got != logLen {
			t.Fatalf("re-run appended %d bytes of frames, the torn commit %d", got, logLen)
		}
		sys.Crash(pmem.EvictAll)
		img := st2.Arena().MediumBytes(cfg.logBase(), span)
		if !bytes.Equal(img[:8], torn[:8]) || !bytes.Equal(img[16:logHeader], torn[16:logHeader]) || !bytes.Equal(img[logHeader:], frames) {
			t.Fatalf("the log differs from the torn commit's sealed image in more than its length:\n got %x\nwant %x%x", img, torn[:logHeader], frames)
		}
		st3 := recovered(st2)
		if n := updated(st3); n != 0 {
			t.Fatalf("crash@%d: the uncommitted re-run was replayed into %d leaves", k, n)
		}
		if frames, isTorn := st3.log.Frames(); frames != nil || isTorn {
			t.Fatalf("crash@%d: the log holds %d frames (torn %v) after recovery", k, len(frames), isTorn)
		}
	}
}
