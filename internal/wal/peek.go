package wal

import (
	"fmt"

	"fasp/internal/pager"
)

// The DRAM-cache schemes keep the last committed image of a page in one of
// two places: the DRAM buffer cache for resident pages (between
// transactions the cached image IS the committed image — Rollback evicts
// pages an aborted transaction dirtied), or the PM page plus its committed
// WAL frames for non-resident ones. PeekCommitted reproduces exactly what
// ensureResident would materialise, restricted to the requested range, but
// without mutating the cache, the clock or the crash injector. For the
// Journal kind the WAL index is empty and the PM page alone is the
// committed image.

// CommittedRoot returns the last committed B-tree root page.
func (st *Store) CommittedRoot() uint32 { return st.meta.Root }

// ComputeCost implements pager.Store.
func (st *Store) ComputeCost(n int64) int64 { return st.sys.ComputeCost(n) }

// PeekCommitted implements pager.Store.
func (st *Store) PeekCommitted(no uint32, off int, dst []byte) (int64, error) {
	if no < 1 || no >= st.meta.NPages {
		return 0, fmt.Errorf("%w: peek of page %d outside [1,%d)",
			pager.ErrCorrupt, no, st.meta.NPages)
	}
	if off < 0 || off+len(dst) > st.cfg.PageSize {
		return 0, fmt.Errorf("%w: peek of page %d range [%d,%d) outside page",
			pager.ErrCorrupt, no, off, off+len(dst))
	}
	base := st.cfg.pageBase(no)
	if st.resident[no] {
		return st.dram.Peek(base+int64(off), dst), nil
	}
	cost := st.pm.Peek(base+int64(off), dst)
	lo, hi := int64(off), int64(off+len(dst))
	for _, fo := range st.walIndex[no] {
		var hdr [frameHeaderSize]byte
		cost += st.pm.Peek(fo, hdr[:])
		foff := int64(leU32(hdr[4:]))
		n := int64(leU32(hdr[8:]))
		s, e := foff, foff+n
		if s < lo {
			s = lo
		}
		if e > hi {
			e = hi
		}
		if s >= e {
			continue
		}
		cost += st.pm.Peek(fo+frameHeaderSize+(s-foff), dst[s-lo:e-lo])
	}
	return cost, nil
}
