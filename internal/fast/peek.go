package fast

import (
	"fmt"

	"fasp/internal/pager"
)

// The FAST schemes checkpoint eagerly: Commit installs every slot header
// in-place before it returns, so the PM arena always holds the complete
// last-committed image once no transaction is running. Pre-commit record
// bytes land only in free space that no committed header references, which
// makes a plain coherent read of the committed pages a consistent snapshot
// — exactly the slot-header-is-the-commit-mark invariant the paper builds
// on. Peek reads that view without touching the machine clock, cache
// overlay or crash injector.

// CommittedRoot returns the last committed B-tree root page.
func (st *Store) CommittedRoot() uint32 { return st.meta.Root }

// ComputeCost implements pager.Store.
func (st *Store) ComputeCost(n int64) int64 { return st.sys.ComputeCost(n) }

// PeekCommitted implements pager.Store over the PM arena.
func (st *Store) PeekCommitted(no uint32, off int, dst []byte) (int64, error) {
	if no < 1 || no >= st.meta.NPages {
		return 0, fmt.Errorf("%w: peek of page %d outside [1,%d)",
			pager.ErrCorrupt, no, st.meta.NPages)
	}
	if off < 0 || off+len(dst) > st.cfg.PageSize {
		return 0, fmt.Errorf("%w: peek of page %d range [%d,%d) outside page",
			pager.ErrCorrupt, no, off, off+len(dst))
	}
	return st.arena.Peek(st.cfg.pageBase(no)+int64(off), dst), nil
}
