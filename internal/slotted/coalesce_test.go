package slotted

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// modelPage drives a page over a MemBuf beside a reference: the records it
// must hold, a byte map rebuilt from scratch after every operation, and the
// bytes of every deferred free, which stand for committed records and must
// survive until the frees are applied.
type modelPage struct {
	t        *testing.T
	p        *Page
	m        *MemBuf
	want     map[string][]byte
	deferred bool
	floor    int      // committed header length while frees are deferred
	held     [][]byte // held[i] = bytes of p.pending[i] when it was freed

	coalesces, gapAbsorbs int // summed over the handles defragmentation retired
}

func newModelPage(t *testing.T, size int) *modelPage {
	m := NewMemBuf(size)
	return &modelPage{t: t, p: Init(m, TypeLeaf), m: m, want: map[string][]byte{}}
}

// commit is a transaction boundary: deferred frees join the list, and the
// header as it stands becomes the committed one.
func (mp *modelPage) commit(deferNext bool) {
	mp.p.ApplyPendingFrees()
	mp.held = mp.held[:0]
	mp.deferred = deferNext
	mp.p.SetDeferFrees(deferNext)
	mp.floor = 0
	if deferNext {
		mp.floor = mp.p.hdr.EncodedLen()
	}
}

// listBlocks walks the free list straight off the image, except a sole
// block, which the header alone describes.
func (mp *modelPage) listBlocks() []extent {
	var out []extent
	if h := mp.p.hdr; h.Flags&FlagSoleFree != 0 {
		return append(out, extent{h.FreeLst, h.Free - uint16(mp.p.pendingSum)})
	}
	for cur := mp.p.hdr.FreeLst; cur != 0; {
		if len(out) > len(mp.m.Buf) {
			mp.t.Fatal("free list cycle")
		}
		sz := binary.LittleEndian.Uint16(mp.m.Buf[cur:])
		out = append(out, extent{cur, sz})
		cur = binary.LittleEndian.Uint16(mp.m.Buf[cur+2:])
	}
	return out
}

// byteMap assigns every byte of the page its owner — 'h' header, 'c' live
// cell, 'f' free-list block, 'p' pending free, 0 nobody — and fails on any
// byte claimed twice or any extent below the content pointer.
func (mp *modelPage) byteMap() []byte {
	t, p := mp.t, mp.p
	owner := make([]byte, len(mp.m.Buf))
	claim := func(off, size int, who byte) {
		t.Helper()
		if who != 'h' && off < int(p.hdr.Content) {
			t.Fatalf("%c extent [%d,%d) below content start %d", who, off, off+size, p.hdr.Content)
		}
		for i := off; i < off+size; i++ {
			if owner[i] != 0 {
				t.Fatalf("byte %d claimed by %c and %c", i, owner[i], who)
			}
			owner[i] = who
		}
	}
	claim(0, p.hdr.EncodedLen(), 'h')
	for i := range p.hdr.Offsets {
		e := p.cellExtent(i)
		claim(int(e.off), int(e.size), 'c')
	}
	for _, e := range mp.listBlocks() {
		claim(int(e.off), int(e.size), 'f')
	}
	for _, e := range p.pending {
		claim(int(e.off), int(e.size), 'p')
	}
	return owner
}

// check verifies every invariant the model knows after an operation.
func (mp *modelPage) check(op string) {
	t, p := mp.t, mp.p
	t.Helper()
	if err := p.Validate(); err != nil {
		t.Fatalf("after %s: %v", op, err)
	}
	mp.byteMap()
	total := 0
	for _, e := range mp.listBlocks() {
		total += int(e.size)
	}
	if int(p.hdr.Free) != total+p.pendingSum {
		t.Fatalf("after %s: Free %d != list %d + pending %d", op, p.hdr.Free, total, p.pendingSum)
	}
	if !bytes.Equal(mp.m.Buf[:p.hdr.EncodedLen()], p.hdr.Encode()) {
		t.Fatalf("after %s: a header change was not announced to the backend", op)
	}
	if p.NCells() != len(mp.want) {
		t.Fatalf("after %s: %d cells, want %d", op, p.NCells(), len(mp.want))
	}
	for k, v := range mp.want {
		i, found := p.Search([]byte(k))
		if !found || !bytes.Equal(p.Value(i), v) {
			t.Fatalf("after %s: record %q lost or damaged", op, k)
		}
	}
	for i, e := range p.pending {
		if !bytes.Equal(mp.m.Buf[e.off:e.off+e.size], mp.held[i]) {
			t.Fatalf("after %s: pending extent [%d,%d) was written before commit", op, e.off, e.off+e.size)
		}
	}
}

// fits is the reference answer to "is there a contiguous free run of size
// bytes": the gap (room for one more offset entry taken out, the committed
// header kept out) together with the list blocks that continue it from the
// content pointer, or any other run of address-adjacent list blocks.
// Pending frees do not count.
func (mp *modelPage) fits(size int) bool {
	p := mp.p
	owner := mp.byteMap()
	end := HeaderFixedSize + 2*(p.NCells()+1)
	if end < mp.floor {
		end = mp.floor
	}
	gap := int(p.hdr.Content) - end
	best, run := 0, 0
	for i := int(p.hdr.Content); i <= len(owner); i++ {
		if i < len(owner) && owner[i] == 'f' {
			run++
			continue
		}
		if start := i - run; start == int(p.hdr.Content) {
			gap += run
		} else if run > best {
			best = run
		}
		run = 0
	}
	return gap >= 0 && (gap >= size || best >= size)
}

// freed records the bytes of the extents an operation just deferred.
func (mp *modelPage) freed() {
	for i := len(mp.held); i < len(mp.p.pending); i++ {
		e := mp.p.pending[i]
		mp.held = append(mp.held, append([]byte(nil), mp.m.Buf[e.off:e.off+e.size]...))
	}
}

// defrag is the caller's answer to ErrNeedsDefrag: the live records move to
// a fresh page (which, like a page a transaction allocated, has no committed
// header to protect).
func (mp *modelPage) defrag() {
	c := mp.p.Counts()
	mp.coalesces, mp.gapAbsorbs = mp.coalesces+c.Coalesces, mp.gapAbsorbs+c.GapAbsorbs
	m := NewMemBuf(len(mp.m.Buf))
	np := Init(m, TypeLeaf)
	if err := mp.p.CopyRangeTo(np, 0, mp.p.NCells()); err != nil {
		mp.t.Fatalf("defrag: %v", err)
	}
	mp.p, mp.m, mp.held, mp.floor = np, m, mp.held[:0], 0
	np.SetDeferFrees(mp.deferred)
	if mp.deferred {
		mp.floor = np.hdr.EncodedLen()
	}
}

// write inserts or resizes key. It holds allocate to the reference: success
// exactly when a contiguous run exists, ErrNeedsDefrag never while one does.
func (mp *modelPage) write(key, val []byte) {
	t := mp.t
	_, update := mp.want[string(key)]
	size := 4 + len(key) + len(val)
	for attempt := 0; ; attempt++ {
		fits := mp.fits(size)
		i, found := mp.p.Search(key)
		if found != update {
			t.Fatalf("search %q: found=%v, model says %v", key, found, update)
		}
		var err error
		if update {
			err = mp.p.Update(i, val)
		} else {
			err = mp.p.InsertAt(i, key, val)
		}
		switch {
		case err == nil:
			if !fits {
				t.Fatalf("write of %d bytes succeeded where the reference sees no room", size)
			}
			mp.freed()
			mp.want[string(key)] = append([]byte(nil), val...)
			return
		case fits:
			t.Fatalf("write of %d bytes: %v, but a contiguous free run exists", size, err)
		case errors.Is(err, ErrNeedsDefrag) && attempt == 0:
			mp.defrag()
		case errors.Is(err, ErrPageFull):
			mp.check("refused write")
			return
		default:
			t.Fatalf("write of %d bytes, attempt %d: %v", size, attempt, err)
		}
	}
}

func (mp *modelPage) delete(key []byte) {
	i, found := mp.p.Search(key)
	if !found {
		mp.t.Fatalf("delete %q: not found", key)
	}
	if err := mp.p.Delete(i); err != nil {
		mp.t.Fatal(err)
	}
	mp.freed()
	delete(mp.want, string(key))
}

// TestFreeSpaceModel runs seeded insert / resize-update / delete churn, with
// frees immediate and deferred by turns, against the reference above.
func TestFreeSpaceModel(t *testing.T) {
	var coalesces, gapAbsorbs int
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mp := newModelPage(t, 512)
		for step := 0; step < 800; step++ {
			k := key(rng.Intn(24))
			_, live := mp.want[string(k)]
			switch r := rng.Intn(10); {
			case r == 0:
				mp.commit(rng.Intn(3) > 0)
				mp.check("commit")
				continue
			case live && r < 4:
				mp.delete(k)
			default:
				mp.write(k, bytes.Repeat([]byte{byte(step)}, 1+rng.Intn(70)))
			}
			mp.check("op")
		}
		mp.defrag() // collects the last handle's counts
		coalesces += mp.coalesces
		gapAbsorbs += mp.gapAbsorbs
	}
	if coalesces == 0 || gapAbsorbs == 0 {
		t.Fatalf("the churn never coalesced (%d) or never absorbed into the gap (%d)", coalesces, gapAbsorbs)
	}
	t.Logf("%d allocations saved by coalescing, %d gap absorbs", coalesces, gapAbsorbs)
}

// fragmented builds a 512-byte leaf holding records 0..n-1 of valLen-byte
// values and deletes the ones in holes, so each hole is one free block.
func fragmented(t *testing.T, n, valLen int, holes ...int) (*Page, *MemBuf) {
	t.Helper()
	p, m := newLeaf(512)
	for i := 0; i < n; i++ {
		if err := p.Insert(key(i), bytes.Repeat([]byte{byte(i)}, valLen)); err != nil {
			t.Fatal(err)
		}
	}
	for _, h := range holes {
		i, found := p.Search(key(h))
		if !found {
			t.Fatalf("hole %d: no such record", h)
		}
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	return p, m
}

func TestCoalesceWritesOnlyChangedHeaders(t *testing.T) {
	// Records 0..8 of 4+9+27 = 40 bytes fill [152,512) from the top down.
	// Deleting 2, 3 and 6 leaves blocks at 392 (rec 2), 352 (rec 3) and 232
	// (rec 6), listed 6 -> 3 -> 2: the last two are address-adjacent.
	p, m := fragmented(t, 9, 27, 2, 3, 6)
	// Shrink the gap so a 60-byte cell fits neither it nor any one block.
	for p.gapAfter(1) >= 60 {
		if err := p.Insert(key(100+p.NCells()), bytes.Repeat([]byte{9}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	var writes []extent
	m.OnWrite = func(off, n int) {
		if off >= int(p.hdr.Content) {
			writes = append(writes, extent{uint16(off), uint16(n)})
		}
	}
	if err := p.Insert(key(50), bytes.Repeat([]byte{5}, 60-4-9)); err != nil {
		t.Fatalf("insert into two adjacent blocks: %v", err)
	}
	// Block 3 at 352 grows to 80 and now ends the list; block 6 keeps its
	// size and its successor, so it is not rewritten. Then fit shrinks the
	// grown block for the cell, and the cell is written into its tail.
	want := []extent{{352, 4}, {352, 4}, {352 + 80 - 60, 60}}
	if len(writes) != len(want) {
		t.Fatalf("content writes = %v, want %v", writes, want)
	}
	for i := range want {
		if writes[i] != want[i] {
			t.Fatalf("content writes = %v, want %v", writes, want)
		}
	}
	if c := p.Counts(); c.Coalesces != 1 || c.GapAbsorbs != 0 {
		t.Fatalf("coalesces=%d gapAbsorbs=%d, want 1 0", c.Coalesces, c.GapAbsorbs)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceAbsorbsIntoGap(t *testing.T) {
	// Record 8 is the lowest cell: deleting it leaves a block at the content
	// pointer, which no list walk can join to the gap.
	p, _ := fragmented(t, 9, 27, 8)
	content, gap := p.hdr.Content, p.gapAfter(1)
	val := bytes.Repeat([]byte{7}, gap+20-4-9) // 20 bytes more than the gap
	if err := p.Insert(key(50), val); err != nil {
		t.Fatalf("insert into gap + adjacent block: %v", err)
	}
	if c := p.Counts(); c.Coalesces != 1 || c.GapAbsorbs != 1 {
		t.Fatalf("coalesces=%d gapAbsorbs=%d, want 1 1", c.Coalesces, c.GapAbsorbs)
	}
	if want := int(content) + 40 - (gap + 20); int(p.hdr.Content) != want || p.hdr.Free != 0 || p.hdr.FreeLst != 0 {
		t.Fatalf("content=%d free=%d head=%d, want %d 0 0", p.hdr.Content, p.hdr.Free, p.hdr.FreeLst, want)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceRepairsSqueezedOffsetArray(t *testing.T) {
	// Fifteen 14-byte records fill a 256-byte page: header to 44, cells from
	// 46. Freeing the two lowest cells, the lower first so that the other
	// heads the list, and inserting 5-byte records in their place: the first
	// two are carved from the front of the list head (60), the third from the
	// tail of the block at the content pointer (46), and the offset array
	// then reaches past the content pointer — "squeezed", which used to mean
	// a page copy. The block still at the content pointer (9 bytes) goes back
	// to the gap instead.
	p := Init(NewMemBuf(256), TypeLeaf)
	n := 0
	for p.Insert(key(n), []byte{1}) == nil {
		n++
	}
	if n != 15 || p.hdr.Content != 46 {
		t.Fatalf("geometry: %d records, content at %d", n, p.hdr.Content)
	}
	for _, i := range []int{n - 1, n - 2} { // record 14 at 46, then record 13 at 60
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range []string{"a", "b", "c", "d"} {
		if i == 3 && p.gapAfter(1) >= 0 {
			t.Fatalf("offset array not squeezed before the fourth insert: gap %d", p.gapAfter(1))
		}
		if err := p.Insert([]byte(k), nil); err != nil {
			t.Fatalf("insert %q: %v", k, err)
		}
	}
	if c := p.Counts(); c.Coalesces != 1 || c.GapAbsorbs != 1 || c.HeadCarves != 2 {
		t.Fatalf("%+v, want 1 coalesce, 1 gap absorb and 2 head carves", c)
	}
	if p.hdr.Content != 50 {
		t.Fatalf("content at %d, want 50", p.hdr.Content)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceLeavesMalformedListAlone(t *testing.T) {
	p, m := fragmented(t, 9, 27, 2, 3, 6)
	for p.gapAfter(1) >= 60 {
		if err := p.Insert(key(100+p.NCells()), bytes.Repeat([]byte{9}, 20)); err != nil {
			t.Fatal(err)
		}
	}
	// A block too small to be one: the first-fit walk steps over it, the
	// coalescing pass must refuse the whole list.
	binary.LittleEndian.PutUint16(m.Buf[352:], 2)
	before := append([]byte(nil), m.Buf...)
	err := p.Insert(key(50), bytes.Repeat([]byte{5}, 60-4-9))
	if !errors.Is(err, ErrNeedsDefrag) {
		t.Fatalf("insert over a malformed free list: %v", err)
	}
	if !bytes.Equal(before, m.Buf) {
		t.Fatal("a malformed free list was written to")
	}
}

func TestCheckFreeListRejectsOverlap(t *testing.T) {
	p, m := fragmented(t, 9, 27, 2, 3, 6)
	if err := p.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
	// Half a merge: block 3 (352) grown over block 2 (392), which is still
	// linked. With Free saying the same, only the overlap gives it away.
	binary.LittleEndian.PutUint16(m.Buf[352:], 80)
	p.hdr.Free += 40
	if err := p.CheckFreeList(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("overlapping free blocks: %v", err)
	}
}

func TestPlanPendingFrees(t *testing.T) {
	p, m := fragmented(t, 9, 27, 6)
	p.SetDeferFrees(true)
	for _, k := range []int{2, 4} {
		i, _ := p.Search(key(k))
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	image := append([]byte(nil), m.Buf[p.hdr.EncodedLen():]...)
	p.PlanPendingFrees()
	planned := p.hdr.Clone()
	if !bytes.Equal(image, m.Buf[p.hdr.EncodedLen():]) {
		t.Fatal("planning wrote to the page")
	}
	p.PlanPendingFrees() // idempotent
	p.ApplyPendingFrees()
	if got := p.hdr; got.Free != planned.Free || got.FreeLst != planned.FreeLst || got.Content != planned.Content {
		t.Fatalf("header after apply %+v differs from the planned %+v", got, planned)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.PendingFrees() != 0 {
		t.Fatal("pending frees remain")
	}
}

func TestInsertAt(t *testing.T) {
	p, _ := newLeaf(512)
	for _, k := range []int{5, 1, 9, 3} {
		i, found := p.Search(key(k))
		if found {
			t.Fatalf("key %d found in a page that lacks it", k)
		}
		if err := p.InsertAt(i, key(k), []byte{byte(k)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{-1, p.NCells() + 1} {
		if err := p.InsertAt(i, key(7), nil); !errors.Is(err, ErrNotFound) {
			t.Fatalf("InsertAt(%d): %v", i, err)
		}
	}
}

func TestGapKeepsClearOfCommittedHeader(t *testing.T) {
	// A split truncates the working offset array; until the transaction
	// commits, the bytes it gave up are still the committed header.
	p, m := newLeaf(256)
	for i := 0; p.gapAfter(1) >= 13; i++ {
		if err := p.Insert(key(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	p.SetDeferFrees(true)
	committed := append([]byte(nil), m.Buf[:p.hdr.EncodedLen()]...)
	p.TruncateKeepUpper(p.NCells() / 2)
	working := p.hdr.EncodedLen()
	// The truncated array alone would now leave room for this cell.
	err := p.Insert(key(999), nil)
	if !errors.Is(err, ErrNeedsDefrag) {
		t.Fatalf("insert into the committed header's bytes: %v", err)
	}
	if got := m.Buf[working:len(committed)]; !bytes.Equal(got, committed[working:]) {
		t.Fatal("the committed offset array was overwritten before commit")
	}
}

// TestSoleFreeBlockImmediate follows the sole-block flag through freeCell's
// immediate (non-deferred) path, which NVWAL, WAL and the journal use: a
// block freed into an empty list and carved, front and whole, writes nothing
// but cells, and the sole block's header is written only when a second
// block joins it, just before the second block's own.
func TestSoleFreeBlockImmediate(t *testing.T) {
	// Records 0..8 of 4+9+27 = 40 bytes: record i at 472 - 40i.
	p, m := fragmented(t, 9, 27)
	var writes []extent
	m.OnWrite = func(off, n int) {
		if off >= HeaderFixedSize+2*p.NCells()+2 {
			writes = append(writes, extent{uint16(off), uint16(n)})
		}
	}
	step := func(what string, op func() error, sole bool, head, free uint16, want ...extent) {
		t.Helper()
		writes = writes[:0]
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		h := p.hdr
		if got := h.Flags&FlagSoleFree != 0; got != sole || h.FreeLst != head || h.Free != free {
			t.Fatalf("%s: sole %v, head %d, free %d; want %v, %d, %d", what, got, h.FreeLst, h.Free, sole, head, free)
		}
		if fmt.Sprint(writes) != fmt.Sprint(want) {
			t.Fatalf("%s: content writes %v, want %v", what, writes, want)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	del := func(k int) func() error {
		return func() error { i, _ := p.Search(key(k)); return p.Delete(i) }
	}
	ins := func(k int) func() error { return func() error { return p.Insert(key(k), make([]byte, 7)) } } // 20-byte cells
	step("free into an empty list", del(2), true, 392, 40)
	step("carve the sole head's front", ins(50), true, 412, 20, extent{392, 20})
	step("take the sole head whole", ins(51), false, 0, 0, extent{412, 20})
	step("free into the empty list again", del(5), true, 272, 40)
	step("a second block joins", del(6), false, 232, 80, extent{272, 4}, extent{232, 4})
	if got := m.Buf[272:276]; binary.LittleEndian.Uint16(got) != 40 || binary.LittleEndian.Uint16(got[2:]) != 0 {
		t.Fatalf("the former sole block's header reads %v, want {40, 0}", got)
	}
}

// TestRebuildFreeListClearsSoleFlag: the lazy repair writes every block's
// header, so the list it leaves carries no sole-block flag.
func TestRebuildFreeListClearsSoleFlag(t *testing.T) {
	p, m := fragmented(t, 9, 27, 2)
	if p.hdr.Flags&FlagSoleFree == 0 || p.hdr.FreeLst != 392 {
		t.Fatalf("one hole: flags %#x, head %d; want a sole block at 392", p.hdr.Flags, p.hdr.FreeLst)
	}
	p.RebuildFreeList()
	if p.hdr.Flags&FlagSoleFree != 0 || p.hdr.FreeLst != 392 || p.hdr.Free != 40 {
		t.Fatalf("after the rebuild: flags %#x, head %d, free %d; want 0, 392, 40", p.hdr.Flags, p.hdr.FreeLst, p.hdr.Free)
	}
	if got := m.Buf[392:396]; binary.LittleEndian.Uint16(got) != 40 || binary.LittleEndian.Uint16(got[2:]) != 0 {
		t.Fatalf("the rebuilt block's header reads %v, want {40, 0}", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFreeListRejectsSoleBlockOverCell: a sole block is described by
// Free alone, so a header whose Free outgrew its list — a FAST frame logged
// before the transaction's frees were linked — is caught by the cells the
// block would run over.
func TestCheckFreeListRejectsSoleBlockOverCell(t *testing.T) {
	p, _ := fragmented(t, 9, 27, 2) // a sole block at 392, record 1 at 432 above it
	if err := p.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
	p.hdr.Free += 40 // [392, 472): record 1
	if err := p.CheckFreeList(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sole block over a cell: %v", err)
	}
	p.hdr.Free -= 40
	p.hdr.FreeLst -= 20 // [372, 412): the tail of record 3, which starts at 352
	if err := p.CheckFreeList(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sole block under a cell's tail: %v", err)
	}
}
