package fasp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// TestWriteBackLedgerPin is the tier-1 pin on what FAST and FAST+ write back
// to PM. It runs a small kv-write churn (TestChurnCostPin's mix on a bare
// tree) on a machine where a line write-back is the only event that costs
// time, 1 ns, so every phase's simulated time is its write-back count, and
// asserts two things:
//
//   - no CLFLUSH lands on a clean line: record flushes, free-block headers,
//     checkpoints, the log, the HTM install and, after the store is reopened
//     over damaged free lists, their lazy repairs flush each dirty line once;
//   - every logged commit's checkpoint writes back exactly the header lines
//     whose bytes differ from the committed header, plus the meta line when
//     the metadata changed and the log's length word when it truncates.
//
// Free-block headers and free-page pushes have a phase of their own
// (phase.FreeList), nested in the checkpoint, which the second check
// subtracts.
func TestWriteBackLedgerPin(t *testing.T) {
	const preload, ops = 600, 2500
	for _, v := range []fast.Variant{fast.InPlaceCommit, fast.SlotHeaderLogging} {
		t.Run(v.String(), func(t *testing.T) {
			sys := pmem.NewSystem(pmem.LatencyModel{PMWrite: 1})
			cfg := fast.Config{PageSize: 4096, MaxPages: 1024, Variant: v}
			st := fast.Create(sys, cfg)
			tree := btree.New(st)
			clock := sys.Clock()
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, 256)
			rng.Read(val)
			key := func(id uint64) []byte {
				var k [8]byte
				binary.BigEndian.PutUint64(k[:], id*0x9E3779B97F4A7C15)
				return k[:]
			}
			var live []uint64
			next := uint64(0)
			op := func(i int) {
				var err error
				switch r := rng.Intn(100); {
				case i < preload || r < 35 || len(live) == 0:
					err = tree.Insert(key(next), val[:32+rng.Intn(225)])
					live = append(live, next)
					next++
				case r < 65:
					err = tree.Put(key(live[rng.Intn(len(live))]), val[:32+rng.Intn(225)])
				default:
					at := rng.Intn(len(live))
					err = tree.Delete(key(live[at]))
					live[at] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}
			for i := 0; i < preload; i++ {
				op(i)
			}

			pm0, ph0 := st.Arena().Stats(), clock.Phases()
			logged, ckptLines := 0, int64(0)
			wrong, first := 0, ""
			for i := preload; i < preload+ops; i++ {
				before, meta := committedHeaders(t, st, tree), st.Meta()
				ckpt0, fl0 := clock.Phase(phase.Checkpoint), clock.Phase(phase.FreeList)
				op(i)
				ckpt := clock.Phase(phase.Checkpoint) - ckpt0
				if ckpt == 0 {
					continue // committed in place
				}
				logged++
				want := int64(1) // the log's length word, zeroed by Truncate
				if st.Meta().TxID != meta.TxID {
					want++ // the meta line
				}
				after := committedHeaders(t, st, tree)
				for no := range before {
					if _, ok := after[no]; !ok {
						after[no] = committedHeader(t, st, no) // freed by the op: its header was still checkpointed
					}
				}
				for no, hdr := range after {
					want += int64(changedLines(hdr, before[no]))
				}
				got := ckpt - (clock.Phase(phase.FreeList) - fl0)
				if got != want {
					if wrong == 0 {
						first = fmt.Sprintf("op %d wrote back %d lines for %d", i, got, want)
					}
					wrong++
				}
				ckptLines += got
			}
			if logged == 0 {
				t.Fatal("the churn never committed through the log")
			}
			if wrong > 0 {
				t.Errorf("%d of %d checkpoints wrote back other than the changed header lines, the log and the meta line; first: %s",
					wrong, logged, first)
			}
			ph := clock.Phases()
			delta := func(name string) int64 { return ph[name] - ph0[name] }
			t.Logf("%d ops, %d logged; write-backs: record %d, in-place install %d, log %d, checkpoint %d, free list %d",
				ops, logged, delta(phase.FlushRecord), delta(phase.AtomicWrite), delta(phase.LogFlush), ckptLines, delta(phase.FreeList))

			// Damage the free list of every leaf that has one, as a crash
			// between a commit and its free-block writes would, reopen the
			// store, and churn on: the lazy repairs flush their lines once too.
			damaged := 0
			for no, hdr := range committedHeaders(t, st, tree) {
				if hdr[0] == slotted.TypeLeaf && binary.LittleEndian.Uint16(hdr[8:]) != 0 {
					freeLst := int64(no)*int64(cfg.PageSize) + 8
					st.Arena().StoreU16(freeLst, 0)
					st.Arena().Flush(freeLst, 2)
					damaged++
				}
			}
			st, err := fast.Attach(st.Arena(), cfg)
			if err == nil {
				err = st.Recover()
			}
			if err != nil || damaged == 0 {
				t.Fatalf("reopening with %d damaged free lists: %v", damaged, err)
			}
			tree = btree.New(st)
			for i := preload + ops; i < preload+2*ops; i++ {
				op(i)
			}
			if st.Stats().FreeListFixes == 0 {
				t.Fatal("the churn after reopening repaired no free list")
			}
			pm := st.Arena().Stats().Delta(pm0)
			if clean := pm.FlushCalls - pm.LineWritebacks; clean != 0 {
				t.Errorf("%d of %d flushes found their line clean", clean, pm.FlushCalls)
			}
		})
	}
}

// committedHeaders returns the committed slot header of every page the tree
// reaches, read without touching the simulated machine's counters.
func committedHeaders(t *testing.T, st *fast.Store, tree *btree.Tree) map[uint32][]byte {
	t.Helper()
	tx, err := tree.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pages, err := tx.Reachable()
	tx.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint32][]byte, len(pages))
	for no := range pages {
		out[no] = committedHeader(t, st, no)
	}
	return out
}

func committedHeader(t *testing.T, st *fast.Store, no uint32) []byte {
	t.Helper()
	var prefix [slotted.HeaderFixedSize]byte
	if _, err := st.PeekCommitted(no, 0, prefix[:]); err != nil {
		t.Fatal(err)
	}
	hdr := make([]byte, slotted.HeaderFixedSize+2*int(binary.LittleEndian.Uint16(prefix[2:])))
	if _, err := st.PeekCommitted(no, 0, hdr); err != nil {
		t.Fatal(err)
	}
	return hdr
}

// changedLines counts the cache lines of header image hdr (at the start of a
// line-aligned page) holding a byte that differs from the committed header
// was — a byte past was's end always differs; was is nil for a page the
// tree did not reach before.
func changedLines(hdr, was []byte) int {
	n := 0
	for lo := 0; lo < len(hdr); lo += pmem.CacheLineSize {
		hi := min(lo+pmem.CacheLineSize, len(hdr))
		if hi > len(was) || !bytes.Equal(hdr[lo:hi], was[lo:hi]) {
			n++
		}
	}
	return n
}

// TestSoleFreeBlockPin is the tier-1 pin on the free-list cost of the
// server's write shape: fixed-size updates, one per transaction, of 76-byte
// cells (8-byte keys, 64-byte values), under FAST+ and FAST, on the same
// write-back-only machine as TestWriteBackLedgerPin. The preload inserts in
// descending key order, so every split frees the cells at the content
// pointer and no leaf starts the churn with a free list. An update then
// takes its cell from the list head, the block the leaf's previous update
// freed, and the cell it frees becomes the leaf's sole free block, which the
// slot header describes: in steady state no free-block header is written
// back (phase.FreeList) and none is read.
func TestSoleFreeBlockPin(t *testing.T) {
	const keys, warm, ops = 3000, 3000, 3000
	for _, v := range []fast.Variant{fast.InPlaceCommit, fast.SlotHeaderLogging} {
		t.Run(v.String(), func(t *testing.T) {
			sys := pmem.NewSystem(pmem.LatencyModel{PMWrite: 1})
			st := fast.Create(sys, fast.Config{PageSize: 4096, MaxPages: 1024, Variant: v})
			tree := btree.New(st)
			rng := rand.New(rand.NewSource(1))
			val := make([]byte, 64)
			key := func(id int) []byte { return binary.BigEndian.AppendUint64(nil, uint64(id)) }
			for id := keys - 1; id >= 0; id-- {
				rng.Read(val)
				if err := tree.Insert(key(id), val); err != nil {
					t.Fatalf("preload %d: %v", id, err)
				}
			}
			update := func() {
				rng.Read(val)
				if err := tree.Put(key(rng.Intn(keys)), val); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < warm; i++ {
				update()
			}
			clock := sys.Clock()
			fl0, s0 := clock.Phase(phase.FreeList), st.Stats()
			for i := 0; i < ops; i++ {
				update()
			}
			fl, s := clock.Phase(phase.FreeList)-fl0, st.Stats()
			reads, splits := s.BlockReads-s0.BlockReads, s.Splits-s0.Splits
			t.Logf("%d updates: %d free-list write-backs, %d block-header reads, %d splits, %d defrags",
				ops, fl, reads, splits, s.Defrags-s0.Defrags)
			if fl != 0 || reads != 0 {
				t.Errorf("steady-state updates wrote back %d free-list lines and read %d free-block headers, want 0 and 0", fl, reads)
			}
		})
	}
}
