package wal

import (
	"encoding/binary"
	"fmt"
	"sort"

	"fasp/internal/nvheap"
	"fasp/internal/pager"
	"fasp/internal/phase"
)

// WAL frame header layout (32 bytes, 8-aligned):
//
//	0:  pageNo  u32
//	4:  off     u32  (byte offset of the payload within the page)
//	8:  len     u32  (payload length)
//	12: pad     u32
//	16: txid    u64
//	24: next    u64  (arena offset of the next frame; 0 = end of chain)
const frameHeaderSize = 32

func leU32(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

type pendingFrame struct {
	frameOff int64
	pageNo   uint32
	off      int
	n        int
}

// pageDiff is one dirty page's differential-logging result.
type pageDiff struct {
	no     uint32
	base   int64
	ranges []byteRange
}

// commitNVWAL implements the NVWAL commit protocol; fullPage selects the
// FullWAL variant (whole-page frames, bump allocation, no diffing).
func (tx *Txn) commitNVWAL(fullPage bool) error {
	st := tx.st
	clock := st.sys.Clock()

	// 1. Differential-logging computation: scan each dirty page to derive
	//    the dirty byte ranges (Figure 8, "NVWAL Computation").
	diffs := st.diffBuf[:0]
	if !fullPage {
		clock.InPhase(phase.NVWALCompute, func() {
			for _, no := range tx.dirtyOrder {
				tp := tx.pages[no]
				// The diff pass compares the working image against the
				// clean copy word by word across the whole page.
				st.sys.Compute(int64(st.cfg.PageSize) / 8)
				diffs = append(diffs, pageDiff{no: no, base: tp.mem.base, ranges: tp.mem.mergedRanges()})
			}
		})
	} else {
		for _, no := range tx.dirtyOrder {
			tp := tx.pages[no]
			diffs = append(diffs, pageDiff{no: no, base: tp.mem.base,
				ranges: []byteRange{{0, st.cfg.PageSize}}})
		}
	}

	st.diffBuf = diffs

	// 2. Allocate WAL frames from the persistent heap (Figure 8, "Heap
	//    Management"). FullWAL uses a bump region instead, checkpointing
	//    when it runs out.
	frames := st.frameBuf[:0]
	var allocErr error
	clock.InPhase(phase.Heap, func() {
		for _, d := range diffs {
			for _, r := range d.ranges {
				var fo int64
				if fullPage {
					need := int64(frameHeaderSize + r.n)
					if st.walAlloc+need > st.cfg.walBase()+walMasterSize+st.cfg.LogBytes {
						st.Checkpoint()
					}
					fo = st.walAlloc
					st.walAlloc += need
					if pad := st.walAlloc % 8; pad != 0 {
						st.walAlloc += 8 - pad
					}
				} else {
					var err error
					fo, err = st.heap.Alloc(int64(frameHeaderSize + r.n))
					if err != nil {
						// Heap exhausted: checkpoint reclaims every frame,
						// then retry once.
						st.Checkpoint()
						fo, err = st.heap.Alloc(int64(frameHeaderSize + r.n))
						if err != nil {
							allocErr = err
							return
						}
					}
				}
				frames = append(frames, pendingFrame{frameOff: fo, pageNo: d.no, off: r.off, n: r.n})
			}
		}
	})
	st.frameBuf = frames
	if allocErr != nil {
		return allocErr
	}

	// 3. Log flush: copy the dirty bytes from the volatile cache into the
	//    frames, chain them, flush each line they span once (adjacent frames
	//    share lines), and commit with one 8-byte link store.
	clock.InPhase(phase.LogFlush, func() {
		var hdr [frameHeaderSize]byte
		for i, f := range frames {
			next := int64(0)
			if i+1 < len(frames) {
				next = frames[i+1].frameOff
			}
			binary.LittleEndian.PutUint32(hdr[0:], f.pageNo)
			binary.LittleEndian.PutUint32(hdr[4:], uint32(f.off))
			binary.LittleEndian.PutUint32(hdr[8:], uint32(f.n))
			binary.LittleEndian.PutUint64(hdr[16:], tx.meta.TxID)
			binary.LittleEndian.PutUint64(hdr[24:], uint64(next))
			st.pm.Store(f.frameOff, hdr[:])
			payload := st.pageBuf(f.n)
			st.dram.Load(st.cfg.pageBase(f.pageNo)+int64(f.off), payload)
			st.pm.Store(f.frameOff+frameHeaderSize, payload)
			st.lines.Add(f.frameOff, frameHeaderSize+f.n)
			st.stats.WALBytes += int64(f.n)
		}
		if st.lines.Flush(st.pm) {
			st.sys.Fence()
			// The commit mark: link the transaction's first frame into the
			// committed chain with one failure-atomic pointer store.
			first := frames[0].frameOff
			if st.walTail == 0 {
				st.pm.StoreU64(st.cfg.walBase()+8, uint64(first))
				st.pm.Persist(st.cfg.walBase()+8, 8)
			} else {
				st.pm.StoreU64(st.walTail+24, uint64(first))
				st.pm.Persist(st.walTail+24, 8)
			}
			st.walTail = frames[len(frames)-1].frameOff
		}
	})

	// 4. Misc: construct the volatile WAL-frame index entries.
	clock.InPhase(phase.Misc, func() {
		for _, f := range frames {
			st.walIndex[f.pageNo] = append(st.walIndex[f.pageNo], f.frameOff)
			st.walOrder = append(st.walOrder, f.frameOff)
			st.walBytes += int64(f.n)
			st.sys.Compute(8)
		}
		st.stats.WALFrames += int64(len(frames))
	})
	return nil
}

// Checkpoint applies the committed WAL to the PM database pages and resets
// the log. NVWAL does this lazily; the cost is deliberately outside the
// per-transaction commit path.
func (st *Store) Checkpoint() {
	if len(st.walIndex) == 0 && st.walTail == 0 {
		st.walAlloc = st.cfg.walBase() + walMasterSize
		return
	}
	// The buffer cache holds the newest committed image of every logged
	// page; write those images home and flush them, in ascending page order
	// so the cache-overlay traffic (and thus simulated time) is
	// deterministic.
	pages := make([]uint32, 0, len(st.walIndex))
	for no := range st.walIndex {
		pages = append(pages, no)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for _, no := range pages {
		base := st.cfg.pageBase(no)
		img := st.pageBuf(st.cfg.PageSize)
		st.dram.Load(base, img)
		st.pm.Store(base, img)
		st.pm.Flush(base, st.cfg.PageSize)
	}
	st.sys.Fence()
	// Invalidate the WAL with one atomic store, then reclaim frames.
	st.pm.StoreU64(st.cfg.walBase()+8, 0)
	st.pm.Persist(st.cfg.walBase()+8, 8)
	if st.cfg.Kind == NVWAL {
		for _, fo := range st.walOrder {
			if err := st.heap.Free(fo); err != nil {
				panic(fmt.Sprintf("wal: checkpoint free: %v", err))
			}
		}
	}
	st.walIndex = map[uint32][]int64{}
	st.walOrder = nil
	st.walTail = 0
	st.walBytes = 0
	st.walAlloc = st.cfg.walBase() + walMasterSize
	st.stats.Checkpoints++
}

// Recover completes crash recovery for the scheme.
func (st *Store) Recover() error {
	if st.cfg.Kind == Journal {
		return st.recoverJournal()
	}
	// Replay the committed WAL chain onto the PM pages.
	head := int64(st.pm.LoadU64(st.cfg.walBase() + 8))
	steps := 0
	for cur := head; cur != 0; {
		hdr := st.pm.Read(cur, frameHeaderSize)
		pageNo := binary.LittleEndian.Uint32(hdr[0:])
		off := int64(binary.LittleEndian.Uint32(hdr[4:]))
		n := int(binary.LittleEndian.Uint32(hdr[8:]))
		next := int64(binary.LittleEndian.Uint64(hdr[24:]))
		if int(pageNo) >= st.cfg.MaxPages || off+int64(n) > int64(st.cfg.PageSize) {
			return fmt.Errorf("%w: WAL frame at %d malformed", pager.ErrCorrupt, cur)
		}
		payload := st.pm.Read(cur+frameHeaderSize, n)
		base := st.cfg.pageBase(pageNo)
		st.pm.Store(base+off, payload)
		st.lines.Add(base+off, n) // later frames of a page rewrite its lines: flush each once, after the last
		cur = next
		if steps++; steps > 1<<22 {
			return fmt.Errorf("%w: WAL chain cycle", pager.ErrCorrupt)
		}
	}
	st.lines.Flush(st.pm)
	st.sys.Fence()
	st.pm.StoreU64(st.cfg.walBase()+8, 0)
	st.pm.Persist(st.cfg.walBase()+8, 8)
	// Every frame is dead now; rebuild the allocator from scratch.
	if st.cfg.Kind == NVWAL {
		st.heap = nil
	}
	st.resetWALState()
	meta, err := pager.ReadMeta(st.pm, 0)
	if err != nil {
		return err
	}
	st.meta = meta
	st.txid = meta.TxID
	return nil
}

func (st *Store) resetWALState() {
	st.walIndex = map[uint32][]int64{}
	st.walOrder = nil
	st.walTail = 0
	st.walBytes = 0
	st.walAlloc = st.cfg.walBase() + walMasterSize
	if st.cfg.Kind == NVWAL && st.heap == nil {
		st.heap = nvheap.Format(st.pm, st.cfg.walBase()+walMasterSize, st.cfg.LogBytes)
	}
}
