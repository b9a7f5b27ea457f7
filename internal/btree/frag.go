package btree

import (
	"fasp/internal/phase"
	"fasp/internal/slotted"
)

// FragReport summarises committed-leaf fragmentation: how much of the cell
// area (the region below the content pointer, where cells live) is dead —
// freed by deletes and out-of-place updates but not yet reclaimed by a
// copy-on-write defragmentation (§4.3).
type FragReport struct {
	// Leaves is the number of leaf pages visited.
	Leaves int
	// CellArea is the total cell-area bytes across leaves (page size minus
	// content-pointer offset).
	CellArea int64
	// DeadBytes is the cell-area bytes not covered by live cells.
	DeadBytes int64
	// HotKeys holds the first key of each leaf whose dead ratio met the
	// scan threshold (bounded by the scan's maxHot) — handles a later
	// DefragLeaves call can descend to.
	HotKeys [][]byte
}

// Ratio returns DeadBytes/CellArea in [0,1] (0 for an empty tree).
func (r *FragReport) Ratio() float64 {
	if r.CellArea == 0 {
		return 0
	}
	return float64(r.DeadBytes) / float64(r.CellArea)
}

// LeafFrag returns a leaf's cell area — everything below its content
// pointer on a pageSize-byte page — and the bytes of it no live cell covers:
// the one fragmentation formula, which FragScan sums over the committed
// leaves and faspinspect over the allocated ones.
func LeafFrag(p *slotted.Page, pageSize int) (area, dead int64) {
	area = int64(pageSize) - int64(p.Header().Content)
	return area, max(area-int64(p.LiveBytes()), 0)
}

// FragScan walks every committed leaf and measures its fragmentation,
// recording the first key of up to maxHot leaves whose dead ratio is ≥
// threshold. Like every View walk it only Peeks committed state — no clock
// advance, no cache fills, no crash points — so the shard engine can measure
// between group commits without perturbing the golden determinism files; the
// Peek cost accrues to Cost as usual.
func (v *View) FragScan(threshold float64, maxHot int) (FragReport, error) {
	var rep FragReport
	err := v.run(func() error {
		return v.walk(v, v.st.CommittedRoot(), &Bounds{}, func(p *slotted.Page, _ int) bool {
			area, dead := LeafFrag(p, v.pageSize)
			rep.Leaves++
			rep.CellArea += area
			rep.DeadBytes += dead
			if p.NCells() > 0 && area > 0 && len(rep.HotKeys) < maxHot &&
				float64(dead) >= threshold*float64(area) {
				rep.HotKeys = append(rep.HotKeys, append([]byte(nil), p.Key(0)...))
			}
			return true
		})
	})
	return rep, err
}

// DefragLeaves rewrites the leaves owning the given keys copy-on-write
// (§4.3) in one transaction, reclaiming their dead cell space, stopping
// after max leaves. It is the proactive counterpart of the on-demand defrag
// an insert triggers when a page has room only in its dead space: the
// shard engine's proactive defrag calls it with the hot keys a FragScan
// reported. Returns the number of leaves rewritten; when
// none were (empty tree, vanished keys) nothing is committed.
func (t *Tree) DefragLeaves(keys [][]byte, max int) (int, error) {
	if len(keys) == 0 || max <= 0 {
		return 0, nil
	}
	tx, err := t.Begin()
	if err != nil {
		return 0, err
	}
	clock := t.st.Sys().Clock()
	n := 0
	for _, key := range keys {
		if n >= max {
			break
		}
		clock.Enter(phase.Search)
		path, derr := tx.descend(key)
		clock.Exit(phase.Search)
		if derr != nil {
			tx.Rollback()
			return 0, derr
		}
		if len(path) == 0 {
			continue
		}
		clock.Enter(phase.PageUpdate)
		_, derr = tx.defrag(path, len(path)-1)
		if derr == nil {
			tx.p.OpEnd()
		}
		clock.Exit(phase.PageUpdate)
		if derr != nil {
			tx.Rollback()
			return 0, derr
		}
		n++
	}
	if n == 0 {
		tx.Rollback()
		return 0, nil
	}
	return n, tx.Commit()
}
