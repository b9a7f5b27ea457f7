package btree

import (
	"testing"

	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// TestPhasesCoverEveryOp holds Figure 6's breakdown to the whole of each
// operation: for Insert, Put and Delete under FAST+, FAST and NVWAL, on a
// tree eight times the emulated cache so that leaves miss, the time charged
// to Search, PageUpdate and Commit must add up to the time the clock
// advanced over the operation — with NVWAL's lazy checkpoint, which runs
// after the commit, in a top-level phase of its own by design.
func TestPhasesCoverEveryOp(t *testing.T) {
	top := []string{phase.Search, phase.PageUpdate, phase.Commit, "LazyCheckpoint"}
	for _, sc := range scheme.Paper {
		t.Run(sc.String(), func(t *testing.T) {
			lat := pmem.DefaultLatencies(300, 300)
			lat.CacheBytes = 64 << 10
			sys := pmem.NewSystem(lat)
			tree := New(sc.Create(sys, scheme.Geometry{PageSize: 4096, MaxPages: 1024}))
			const n = 4000
			for i := 0; i < n; i++ {
				mustInsert(t, tree, i, 100)
			}
			clock := sys.Clock()
			charged := func() int64 {
				sum := int64(0)
				for _, name := range top {
					sum += clock.Phase(name)
				}
				return sum
			}
			ops := []struct {
				name string
				do   func(i int) error
			}{
				{"insert", func(i int) error { return tree.Insert(k(n+i), v(i, 100)) }},
				{"put", func(i int) error { return tree.Put(k(n/2+i*37%(n/2)), v(i, 40+i%120)) }},
				{"delete", func(i int) error { return tree.Delete(k(i * 53 % (n / 2))) }},
			}
			for i := 0; i < 60; i++ {
				for _, op := range ops {
					t0, c0 := clock.Now(), charged()
					if err := op.do(i); err != nil {
						t.Fatalf("%s %d: %v", op.name, i, err)
					}
					if adv, sum := clock.Now()-t0, charged()-c0; adv != sum {
						t.Fatalf("%s %d: the clock advanced %d ns, the three phases were charged %d", op.name, i, adv, sum)
					}
				}
			}
		})
	}
}
