package fasp

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/pmem"
)

// TestLeafSearchProbePin is the tier-1 pin on what an in-page search reads,
// in the server's write shape: FAST+, 4 KiB pages, 76-byte cells (random
// 8-byte keys, 64-byte values), one Put per transaction, with the tree
// (1,800 pages, 7 MiB) fourteen times the emulated cache, so a probe of a
// leaf that is not cached is a PM line fill. The search interpolates between the bounds the descent read on
// the way down (slotted.Page.SearchRange).
//
// Pinned values, and the same run with every search bisecting (sort.Search
// and one more compare of the cell it found, the search this one replaced):
//
//	                             bisecting   interpolating
//	leaf probes per search          5.272        1.244
//	interior probes per search      6.362        3.034
//	line fills per update           5.712        2.870
//
// The pin allows 5% either side of its values; bisecting again fails both.
func TestLeafSearchProbePin(t *testing.T) {
	const (
		keys, warm, ops = 30000, 5000, 5000
		wantProbes      = 1.244
		wantFills       = 2.870
	)
	lat := pmem.DefaultLatencies(300, 300)
	lat.CacheBytes = 512 << 10
	sys := pmem.NewSystem(lat)
	st := fast.Create(sys, fast.Config{PageSize: 4096, MaxPages: 4096, Variant: fast.InPlaceCommit})
	tree := btree.New(st)
	rng := rand.New(rand.NewSource(1))
	key := func(id int) []byte {
		return binary.BigEndian.AppendUint64(nil, uint64(id+1)*0x9E3779B97F4A7C15)
	}
	val := make([]byte, 64)
	for _, id := range rng.Perm(keys) {
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
	s0, pm0 := st.Stats(), st.Arena().Stats()
	for i := 0; i < ops; i++ {
		update()
	}
	s, pm := st.Stats(), st.Arena().Stats().Delta(pm0)
	probes := float64(s.LeafProbes-s0.LeafProbes) / float64(s.LeafSearches-s0.LeafSearches)
	interior := float64(s.InteriorProbes-s0.InteriorProbes) / float64(s.InteriorSearches-s0.InteriorSearches)
	fills := float64(pm.LineFills) / ops
	t.Logf("%d updates: %.3f probes per leaf search, %.3f per interior search, %.3f line fills per update",
		ops, probes, interior, fills)
	if probes < 0.95*wantProbes || probes > 1.05*wantProbes {
		t.Errorf("%.3f probes per leaf search, want %.3f ± 5%%", probes, wantProbes)
	}
	if fills < 0.95*wantFills || fills > 1.05*wantFills {
		t.Errorf("%.3f line fills per update, want %.3f ± 5%%", fills, wantFills)
	}
}
