package slotted

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }

func newLeaf(size int) (*Page, *MemBuf) {
	m := NewMemBuf(size)
	return Init(m, TypeLeaf), m
}

func TestHeaderEncodeDecodeRoundTrip(t *testing.T) {
	h := Header{Type: TypeLeaf, Flags: 3, Content: 4000, Free: 12, FreeLst: 3990, Aux: 77,
		Offsets: []uint16{100, 200, 300}}
	enc := h.Encode()
	got, err := DecodeHeader(enc, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != h.Type || got.Flags != h.Flags || got.Content != h.Content ||
		got.Free != h.Free || got.FreeLst != h.FreeLst || got.Aux != h.Aux {
		t.Fatalf("decoded = %+v, want %+v", got, h)
	}
	if len(got.Offsets) != 3 || got.Offsets[1] != 200 {
		t.Fatalf("offsets = %v", got.Offsets)
	}
}

func TestDecodeHeaderErrors(t *testing.T) {
	if _, err := DecodeHeader([]byte{1, 2}, 4096); !errors.Is(err, ErrCorrupt) {
		t.Errorf("short prefix: %v", err)
	}
	h := Header{Type: TypeLeaf, Offsets: []uint16{1, 2, 3}}
	enc := h.Encode()
	if _, err := DecodeHeader(enc[:HeaderFixedSize+2], 4096); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncated offsets: %v", err)
	}
}

func TestInsertAndSearch(t *testing.T) {
	p, _ := newLeaf(4096)
	for _, i := range []int{5, 1, 9, 3, 7} {
		if err := p.Insert(key(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if p.NCells() != 5 {
		t.Fatalf("ncells = %d", p.NCells())
	}
	// Keys must be sorted regardless of insertion order.
	for i := 1; i < p.NCells(); i++ {
		if bytes.Compare(p.Key(i-1), p.Key(i)) >= 0 {
			t.Fatalf("keys out of order: %q >= %q", p.Key(i-1), p.Key(i))
		}
	}
	idx, found := p.Search(key(7))
	if !found {
		t.Fatal("key 7 not found")
	}
	if got := string(p.Value(idx)); got != "val-7" {
		t.Fatalf("value = %q", got)
	}
	if _, found := p.Search(key(4)); found {
		t.Fatal("phantom key found")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicateRejected(t *testing.T) {
	p, _ := newLeaf(4096)
	if err := p.Insert(key(1), []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.Insert(key(1), []byte("b")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("err = %v, want ErrDuplicate", err)
	}
}

func TestUpdateIsOutOfPlace(t *testing.T) {
	p, m := newLeaf(4096)
	if err := p.Insert(key(1), []byte("original")); err != nil {
		t.Fatal(err)
	}
	oldOff := p.Header().Offsets[0]
	if err := p.Update(0, []byte("replacement")); err != nil {
		t.Fatal(err)
	}
	newOff := p.Header().Offsets[0]
	if newOff == oldOff {
		t.Fatal("update overwrote the record in place")
	}
	// The old record bytes are still intact at the old offset until the
	// free block header is linked over them (immediate mode links at once,
	// but only the first 4 bytes are touched).
	raw := m.Buf[int(oldOff)+4 : int(oldOff)+4+len("key000001")]
	if !bytes.Equal(raw, []byte("key000001")) {
		t.Fatalf("old key bytes damaged: %q", raw)
	}
	if got := string(p.Value(0)); got != "replacement" {
		t.Fatalf("value = %q", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAndFreeListReuse(t *testing.T) {
	p, _ := newLeaf(4096)
	for i := 0; i < 10; i++ {
		if err := p.Insert(key(i), bytes.Repeat([]byte{byte(i)}, 50)); err != nil {
			t.Fatal(err)
		}
	}
	freeBefore := p.FreeTotal()
	if err := p.Delete(4); err != nil {
		t.Fatal(err)
	}
	if p.NCells() != 9 {
		t.Fatalf("ncells = %d", p.NCells())
	}
	if _, found := p.Search(key(4)); found {
		t.Fatal("deleted key still found")
	}
	if p.FreeTotal() <= freeBefore {
		t.Fatal("free space did not grow after delete")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// A same-size insert should reuse the freed block once the gap runs out.
	if err := p.Insert(key(100), bytes.Repeat([]byte{9}, 50)); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeferredFreesKeepOldBytesIntact(t *testing.T) {
	p, m := newLeaf(4096)
	if err := p.Insert(key(1), []byte("precious-data")); err != nil {
		t.Fatal(err)
	}
	off := int(p.Header().Offsets[0])
	imgBefore := append([]byte(nil), m.Buf[off:off+4+9+13]...)
	p.SetDeferFrees(true)
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if p.PendingFrees() != 1 {
		t.Fatalf("pending frees = %d", p.PendingFrees())
	}
	if !bytes.Equal(m.Buf[off:off+len(imgBefore)], imgBefore) {
		t.Fatal("deferred free damaged committed record bytes")
	}
	// Deferred space must not be reallocated before commit.
	if p.FreeTotal() != p.gapAfter(1) {
		t.Fatalf("pending free space counted as allocatable: %d", p.FreeTotal())
	}
	p.ApplyPendingFrees()
	if p.PendingFrees() != 0 {
		t.Fatal("pending frees not cleared")
	}
	if err := p.CheckFreeList(); err != nil {
		t.Fatal(err)
	}
	// Now the block header overwrote the first bytes.
	if bytes.Equal(m.Buf[off:off+4], imgBefore[:4]) && p.Header().FreeLst == uint16(off) {
		t.Fatal("free block header not written")
	}
}

func TestPageFullAndNeedsDefrag(t *testing.T) {
	p, _ := newLeaf(512)
	// Fill the page with several records.
	n := 0
	for ; ; n++ {
		err := p.Insert(key(n), bytes.Repeat([]byte{1}, 60))
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("fill err = %v", err)
			}
			break
		}
	}
	if n < 5 {
		t.Fatalf("only %d inserts fit", n)
	}
	// Delete two non-adjacent records: enough total space, fragmented.
	if err := p.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := p.Delete(2); err != nil {
		t.Fatal(err)
	}
	err := p.Insert([]byte("zz-big"), bytes.Repeat([]byte{2}, 100))
	if !errors.Is(err, ErrNeedsDefrag) {
		t.Fatalf("err = %v, want ErrNeedsDefrag", err)
	}
	// A record larger than all free space reports ErrPageFull.
	err = p.Insert([]byte("zz-huge"), bytes.Repeat([]byte{2}, 400))
	if !errors.Is(err, ErrPageFull) {
		t.Fatalf("err = %v, want ErrPageFull", err)
	}
}

// readCounter is a MemBuf that counts the reads made of it.
type readCounter struct {
	*MemBuf
	reads int
}

func (m *readCounter) Read(off, n int) []byte       { m.reads++; return m.MemBuf.Read(off, n) }
func (m *readCounter) ReadInto(off int, dst []byte) { m.reads++; m.MemBuf.ReadInto(off, dst) }

func TestCopyRangeToAppendsLeafCells(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		p, _ := newLeaf(1024)
		for i := 0; i < 40; i++ {
			k := key(rng.Intn(30))
			if j, found := p.Search(k); found {
				_ = p.Delete(j)
			} else {
				_ = p.InsertAt(j, k, bytes.Repeat([]byte{byte(i)}, rng.Intn(60)))
			}
		}
		lo := rng.Intn(p.NCells() + 1)
		hi := lo + rng.Intn(p.NCells()-lo+1)
		// The copy as a binary-searched insert per cell makes it.
		want := NewMemBuf(1024)
		ref := Init(want, TypeLeaf)
		for i := lo; i < hi; i++ {
			if err := ref.Insert(p.Key(i), p.Value(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := &readCounter{MemBuf: NewMemBuf(1024)}
		if err := p.CopyRangeTo(Init(got, TypeLeaf), lo, hi); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Buf, want.Buf) {
			t.Fatalf("round %d: copy of cells [%d,%d) differs from the searched inserts' page", round, lo, hi)
		}
		if got.reads != 0 {
			t.Fatalf("round %d: the copy read the destination %d times", round, got.reads)
		}
	}
}

func TestCopyRangeToCompacts(t *testing.T) {
	p, _ := newLeaf(1024)
	for i := 0; i < 8; i++ {
		if err := p.Insert(key(i), bytes.Repeat([]byte{byte(i)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{6, 3, 0} {
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	dst, _ := newLeaf(1024)
	if err := p.CopyRangeTo(dst, 0, p.NCells()); err != nil {
		t.Fatal(err)
	}
	if dst.NCells() != p.NCells() {
		t.Fatalf("dst cells = %d, want %d", dst.NCells(), p.NCells())
	}
	// Total free space is conserved, but in dst it is all contiguous gap:
	// no free-list fragments remain.
	if dst.Header().FreeLst != 0 || dst.Header().Free != 0 {
		t.Fatalf("compacted page still fragmented: free=%d head=%d", dst.Header().Free, dst.Header().FreeLst)
	}
	if p.Header().FreeLst == 0 {
		t.Fatal("source page unexpectedly unfragmented; test is vacuous")
	}
	for i := 0; i < dst.NCells(); i++ {
		if !bytes.Equal(dst.Key(i), p.Key(i)) || !bytes.Equal(dst.Value(i), p.Value(i)) {
			t.Fatalf("cell %d mismatch after copy", i)
		}
	}
	if err := dst.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTruncateKeepUpper(t *testing.T) {
	p, _ := newLeaf(2048)
	for i := 0; i < 10; i++ {
		if err := p.Insert(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	p.SetDeferFrees(true)
	p.TruncateKeepUpper(6)
	if p.NCells() != 4 {
		t.Fatalf("ncells = %d, want 4", p.NCells())
	}
	if !bytes.Equal(p.Key(0), key(6)) {
		t.Fatalf("first key = %q", p.Key(0))
	}
	if p.PendingFrees() != 6 {
		t.Fatalf("pending frees = %d, want 6", p.PendingFrees())
	}
	p.ApplyPendingFrees()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInteriorPageChildren(t *testing.T) {
	m := NewMemBuf(1024)
	p := Init(m, TypeInterior)
	for i := 0; i < 5; i++ {
		if err := p.InsertChild(key(i*10), uint32(100+i), nil); err != nil {
			t.Fatal(err)
		}
	}
	p.SetAux(999)
	if p.Aux() != 999 {
		t.Fatal("aux lost")
	}
	i, found := p.Search(key(20))
	if !found || p.Child(i) != 102 {
		t.Fatalf("child(20) = %d found=%v", p.Child(i), found)
	}
	if err := p.UpdateChild(i, 555); err != nil {
		t.Fatal(err)
	}
	if p.Child(i) != 555 {
		t.Fatalf("child after update = %d", p.Child(i))
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRereadsHeader(t *testing.T) {
	m := NewMemBuf(4096)
	p := Init(m, TypeLeaf)
	if err := p.Insert(key(1), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	q, err := Open(m)
	if err != nil {
		t.Fatal(err)
	}
	if q.NCells() != 1 || !bytes.Equal(q.Value(0), []byte("v1")) {
		t.Fatal("reopened page lost data")
	}
}

func TestRebuildFreeListRecoversAllSpace(t *testing.T) {
	p, _ := newLeaf(2048)
	for i := 0; i < 12; i++ {
		if err := p.Insert(key(i), bytes.Repeat([]byte{1}, 30+i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, i := range []int{9, 5, 1} {
		if err := p.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate crash damage: corrupt the free-list head.
	p.Header().FreeLst = 7 // nonsense offset
	p.Header().Free = 9999
	if p.CheckFreeList() == nil {
		t.Fatal("corrupt free list passed check")
	}
	p.RebuildFreeList()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// All non-cell content bytes are free again: inserting until full should
	// recover at least as much space as the cells we deleted.
	if err := p.Insert(key(100), bytes.Repeat([]byte{2}, 30)); err != nil {
		t.Fatalf("insert after rebuild: %v", err)
	}
}

func TestMaxInPlaceCellsConstant(t *testing.T) {
	if MaxInPlaceCells != 25 {
		t.Fatalf("MaxInPlaceCells = %d, want 25 ((64-14)/2)", MaxInPlaceCells)
	}
	h := Header{Type: TypeLeaf, Offsets: make([]uint16, MaxInPlaceCells)}
	if h.EncodedLen() > 64 {
		t.Fatalf("header with max in-place cells is %d bytes > cache line", h.EncodedLen())
	}
}

// refModel is a map-based reference the property tests compare against.
type refModel map[string]string

func TestPageMatchesReferenceModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := newLeaf(4096)
		ref := refModel{}
		for step := 0; step < 300; step++ {
			k := key(rng.Intn(40))
			switch rng.Intn(3) {
			case 0: // insert
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				err := p.Insert(k, []byte(v))
				_, exists := ref[string(k)]
				switch {
				case errors.Is(err, ErrDuplicate):
					if !exists {
						return false
					}
				case errors.Is(err, ErrNeedsDefrag), errors.Is(err, ErrPageFull):
					// Acceptable: page space exhausted.
				case err == nil:
					if exists {
						return false
					}
					ref[string(k)] = v
				default:
					return false
				}
			case 1: // update
				if i, found := p.Search(k); found {
					v := fmt.Sprintf("u%d", rng.Intn(1000))
					if err := p.Update(i, []byte(v)); err == nil {
						ref[string(k)] = v
					} else if !errors.Is(err, ErrNeedsDefrag) && !errors.Is(err, ErrPageFull) {
						return false
					}
				}
			case 2: // delete
				if i, found := p.Search(k); found {
					if err := p.Delete(i); err != nil {
						return false
					}
					delete(ref, string(k))
				}
			}
			if p.Validate() != nil {
				return false
			}
		}
		// Final contents must match the model exactly.
		if p.NCells() != len(ref) {
			return false
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for i, k := range keys {
			if !bytes.Equal(p.Key(i), []byte(k)) || string(p.Value(i)) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: an uncommitted header (in the handle) never requires the
// committed image to change — reopening the MemBuf image before
// HeaderChanged-driven writes would still decode. Here we check the
// stronger, simpler invariant that Encode/Decode round-trips arbitrary
// headers.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(typ, flags byte, content, free, freeLst uint16, aux uint32, offs []uint16) bool {
		if len(offs) > 500 {
			offs = offs[:500]
		}
		h := Header{Type: typ, Flags: flags, Content: content % 4096, Free: free,
			FreeLst: freeLst, Aux: aux, Offsets: offs}
		if h.Content == 0 {
			h.Content = 1
		}
		got, err := DecodeHeader(h.Encode(), 4096)
		if err != nil {
			return false
		}
		if got.Type != h.Type || got.Content != h.Content || got.Aux != h.Aux ||
			len(got.Offsets) != len(h.Offsets) {
			return false
		}
		for i := range offs {
			if got.Offsets[i] != offs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCellExtentSizes(t *testing.T) {
	p, _ := newLeaf(4096)
	if err := p.Insert([]byte("abc"), []byte("defgh")); err != nil {
		t.Fatal(err)
	}
	e := p.cellExtent(0)
	if e.size != 4+3+5 {
		t.Fatalf("leaf cell size = %d, want 12", e.size)
	}
	m := NewMemBuf(4096)
	q := Init(m, TypeInterior)
	if err := q.InsertChild([]byte("abc"), 7, nil); err != nil {
		t.Fatal(err)
	}
	if e := q.cellExtent(0); e.size != 6+3 {
		t.Fatalf("interior cell size = %d, want 9", e.size)
	}
}

func TestMemBufOnWrite(t *testing.T) {
	m := NewMemBuf(256)
	var writes []int
	m.OnWrite = func(off, n int) { writes = append(writes, off, n) }
	p := Init(m, TypeLeaf) // header write
	if err := p.Insert([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if len(writes) < 4 {
		t.Fatalf("OnWrite not invoked enough: %v", writes)
	}
	// Sanity: MemBuf image header decodes to the handle's header.
	got, err := DecodeHeader(m.Buf, 256)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Offsets) != 1 || got.Offsets[0] != p.Header().Offsets[0] {
		t.Fatal("image header out of sync")
	}
	_ = binary.LittleEndian // keep import if unused elsewhere
}
