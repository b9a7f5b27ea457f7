package btree

import "fasp/internal/slotted"

// LeafFrag returns a leaf's cell area — everything below its content
// pointer on a pageSize-byte page — and the bytes of it no live cell covers:
// dead space freed by deletes and out-of-place updates but not yet
// reclaimed by a copy-on-write defragmentation (§4.3). faspinspect sums it
// over the allocated leaves.
func LeafFrag(p *slotted.Page, pageSize int) (area, dead int64) {
	area = int64(pageSize) - int64(p.Header().Content)
	return area, max(area-int64(p.LiveBytes()), 0)
}
