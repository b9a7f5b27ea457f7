package fasp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
)

// TestRelocationPin is the tier-1 pin on how a FAST+ leaf that needs
// defragmentation gets its room, in kv-write's shape on a bare tree: 4 KiB
// pages, 8-byte keys, values uniform over 32..256 bytes, a preload, then the
// 35/30/35 insert / put / delete mix, one operation per transaction, with the
// tree about ten times the emulated cache so that leaves miss. A fragmented
// leaf moves the cell or two between its free blocks and installs its header
// in place (fast.Txn.Relocate); the page is copied only where no move is
// possible.
//
// Pinned values, and the same run before moves, when every such leaf was
// copied:
//
//	                          copying   moving
//	page copies per kop        34.60    15.65
//	moves per kop               0       37.75
//	line fills per op           7.309    6.518
//	write-backs per op          6.634    5.678
//
// A move makes room for one cell where a copy compacts the whole page, so a
// leaf needs room again sooner: there are more moves than copies saved, and
// each costs a few lines where a copy rewrites the page. The pin allows 5%
// either side of each value; copying again fails all four.
func TestRelocationPin(t *testing.T) {
	const (
		preload, warm, ops = 20000, 5000, 20000
		wantCopies         = 15.65
		wantMoves          = 37.75
		wantFills          = 6.518
		wantWritebacks     = 5.678
	)
	lat := pmem.DefaultLatencies(300, 300)
	lat.CacheBytes = 512 << 10
	sys := pmem.NewSystem(lat)
	st := fast.Create(sys, fast.Config{PageSize: 4096, MaxPages: 8192, Variant: fast.InPlaceCommit})
	tree := btree.New(st)
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 256)
	rng.Read(val)
	key := func(id uint64) []byte {
		return binary.BigEndian.AppendUint64(nil, id*0x9E3779B97F4A7C15) // odd multiplier: a bijection
	}
	var live []uint64
	next := uint64(0)
	insert := func() {
		if err := tree.Insert(key(next), val[:32+rng.Intn(225)]); err != nil {
			t.Fatalf("insert %d: %v", next, err)
		}
		live = append(live, next)
		next++
	}
	for next < preload {
		insert()
	}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			switch r := rng.Intn(100); {
			case r < 35:
				insert()
			case r < 65:
				if err := tree.Put(key(live[rng.Intn(len(live))]), val[:32+rng.Intn(225)]); err != nil {
					t.Fatalf("put: %v", err)
				}
			default:
				at := rng.Intn(len(live))
				if err := tree.Delete(key(live[at])); err != nil {
					t.Fatalf("delete: %v", err)
				}
				live[at] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		}
	}
	churn(warm)
	s0, pm0 := st.Stats(), st.Arena().Stats()
	churn(ops)
	s, pm := st.Stats(), st.Arena().Stats().Delta(pm0)
	got := []struct {
		name      string
		got, want float64
	}{
		{"page copies per kop", 1e3 * float64(s.Defrags-s0.Defrags) / ops, wantCopies},
		{"moves per kop", 1e3 * float64(s.Relocations-s0.Relocations) / ops, wantMoves},
		{"line fills per op", float64(pm.LineFills) / ops, wantFills},
		{"write-backs per op", float64(pm.LineWritebacks) / ops, wantWritebacks},
	}
	for _, g := range got {
		t.Logf("%-20s %.3f", g.name, g.got)
		if g.got < 0.95*g.want || g.got > 1.05*g.want {
			t.Errorf("%s = %.3f, want %.3f ± 5%%", g.name, g.got, g.want)
		}
	}
	tx, err := tree.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		t.Fatal(err)
	}
}
