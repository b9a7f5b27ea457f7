package slotted

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// churnPage decodes data into churn on a 512-byte leaf whose frees are
// deferred, the way a PM-direct backend runs it: each two-byte step is a
// commit (pending frees linked, the header committed), a write of a key —
// insert or resize — or a delete. A write the page refuses is skipped. The
// churn ends with a commit, so the page's header is the committed one. It
// returns the page and the records it must hold.
func churnPage(data []byte) (*Page, *MemBuf, map[string][]byte) {
	m := NewMemBuf(512)
	p := Init(m, TypeLeaf)
	p.SetDeferFrees(true)
	want := map[string][]byte{}
	commit := func() {
		p.ApplyPendingFrees()
		p.SetDeferFrees(true)
	}
	for len(data) >= 2 {
		op, arg := data[0], data[1]
		data = data[2:]
		k := key(int(op>>2) % 20)
		_, live := want[string(k)]
		switch {
		case op&3 == 0:
			commit()
		case op&3 == 3 && live:
			i, _ := p.Search(k)
			if p.Delete(i) == nil {
				delete(want, string(k))
			}
		default:
			val := bytes.Repeat([]byte{arg}, 1+int(arg)%90)
			i, found := p.Search(k)
			var err error
			if found {
				err = p.Update(i, val)
			} else {
				err = p.InsertAt(i, k, val)
			}
			if err == nil {
				want[string(k)] = val
			}
		}
	}
	commit()
	return p, m, want
}

// relocateCase runs one request against a churned page: a write of key
// (insert or resize) with a value of vlen bytes. When the page asks for
// defragmentation and Relocate reports a move, the committed cells must be
// intact until the frees are applied, only cells inside the window may have
// moved, and, once the frees are linked, the write must succeed without
// another ErrNeedsDefrag, leaving a sound free list and every record. It
// reports whether the page moved cells, and the first of these that failed.
func relocateCase(data []byte, k []byte, vlen int) (bool, error) {
	p, m, want := churnPage(data)
	val := bytes.Repeat([]byte{0xEE}, vlen)
	write := func() error {
		i, found := p.Search(k)
		if found {
			return p.Update(i, val)
		}
		return p.InsertAt(i, k, val)
	}
	if err := write(); !errors.Is(err, ErrNeedsDefrag) {
		return false, nil
	}
	before := append([]byte(nil), m.Buf...)
	offs := append([]uint16(nil), p.hdr.Offsets...)
	cells := make([]extent, len(offs))
	for i := range offs {
		cells[i] = p.cellExtent(i)
	}
	size := 4 + len(k) + vlen
	lo, hi, ok := p.Relocate(size)
	if !ok {
		if !bytes.Equal(before, m.Buf) || !slicesEqual(offs, p.hdr.Offsets) {
			return false, fmt.Errorf("a page with no plan for %d bytes changed", size)
		}
		return false, nil
	}
	for i, e := range cells {
		if !bytes.Equal(m.Buf[e.off:e.off+e.size], before[e.off:e.off+e.size]) {
			return true, fmt.Errorf("cell %d at [%d,%d) overwritten before the move committed", i, e.off, e.off+e.size)
		}
		if p.hdr.Offsets[i] != offs[i] && (int(offs[i]) < lo || int(offs[i]) >= hi) {
			return true, fmt.Errorf("cell %d moved from %d, outside the window [%d,%d)", i, offs[i], lo, hi)
		}
	}
	p.ApplyPendingFrees()
	p.SetDeferFrees(true)
	if err := p.CheckFreeList(); err != nil {
		return true, fmt.Errorf("after the move out of [%d,%d): %v", lo, hi, err)
	}
	if err := write(); err != nil {
		return true, fmt.Errorf("write of %d bytes after the move out of [%d,%d): %v", size, lo, hi, err)
	}
	want[string(k)] = val
	if err := p.Validate(); err != nil {
		return true, fmt.Errorf("after the write: %v", err)
	}
	if p.NCells() != len(want) {
		return true, fmt.Errorf("%d cells, want %d", p.NCells(), len(want))
	}
	for key, v := range want {
		if i, found := p.Search([]byte(key)); !found || !bytes.Equal(p.Value(i), v) {
			return true, fmt.Errorf("record %q lost or damaged", key)
		}
	}
	return true, nil
}

func slicesEqual(a, b []uint16) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// FuzzRelocate decodes churn (churnPage) followed by a request — a key
// index and a value length — and holds the move to relocateCase. The seed
// corpus in testdata/fuzz/FuzzRelocate holds requests that move cells.
func FuzzRelocate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, kb, vb byte) {
		if _, err := relocateCase(data, key(int(kb)%24), 1+int(vb)%200); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRelocateChurn holds 3,000 seeded requests to relocateCase, and the
// churn to making some of them move cells.
func TestRelocateChurn(t *testing.T) {
	moves, tries := 0, 0
	rng := rand.New(rand.NewSource(7))
	for seed := 0; seed < 3000; seed++ {
		data := make([]byte, 2*(20+rng.Intn(80)))
		rng.Read(data)
		tries++
		moved, err := relocateCase(data, key(rng.Intn(24)), 1+rng.Intn(200))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if moved {
			moves++
		}
	}
	t.Logf("%d of %d requests moved cells", moves, tries)
	if moves == 0 {
		t.Fatal("no request moved a cell")
	}
}
