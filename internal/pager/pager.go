// Package pager defines the storage abstraction the B-tree runs on: a Store
// that opens transactions, and a Txn that hands out slotted-page handles and
// implements one of the commit schemes under evaluation.
//
// Implementations:
//
//   - internal/fast: the paper's contribution — a PM-only persistent buffer
//     cache with slot-header logging (FAST) and HTM in-place commit (FAST+);
//   - internal/wal: the baselines — NVWAL (DRAM cache + differential
//     logging in PM), full-page WAL, and rollback journaling.
package pager

import (
	"errors"

	"fasp/internal/pmem"
	"fasp/internal/slotted"
)

// Errors shared by store implementations.
var (
	// ErrTxnActive reports Begin while a transaction is open (stores are
	// single-writer, like SQLite in exclusive mode).
	ErrTxnActive = errors.New("pager: transaction already active")
	// ErrFull reports page-space exhaustion.
	ErrFull = errors.New("pager: out of pages")
	// ErrCorrupt reports an unrecoverable store image.
	ErrCorrupt = errors.New("pager: store corrupt")
)

// Store is a database file: a page space plus a recovery mechanism.
type Store interface {
	// Name identifies the commit scheme ("FAST+", "NVWAL", …).
	Name() string
	// PageSize returns the page size in bytes.
	PageSize() int
	// Sys returns the simulated machine the store lives on.
	Sys() *pmem.System
	// Begin opens the store's single write transaction.
	Begin() (Txn, error)
	// Recover runs crash recovery; call once after (re)opening a store
	// whose previous incarnation may have crashed.
	Recover() error

	// The committed snapshot: the read-only view every reader walks. It
	// serves the LAST COMMITTED state only — in-flight transaction writes
	// are never visible through it — and its calls mutate no simulated
	// machine state (no clock advance, no cache fill, no crash points).
	// They are NOT internally synchronised: callers guarantee that no
	// commit runs concurrently (the shard engine's epoch gate, or its
	// shard lock).

	// CommittedRoot returns the B-tree root page of the last committed
	// transaction (0 = empty tree).
	CommittedRoot() uint32
	// PeekCommitted copies committed bytes [off, off+len(dst)) of page no
	// into dst and returns the simulated cost a transaction's reads of
	// the same bytes would have charged. Out-of-range pages or offsets
	// return an error (wrapping ErrCorrupt) instead of panicking: a torn
	// walk over a stale root must surface as a failure, not a process
	// fault.
	PeekCommitted(no uint32, off int, dst []byte) (int64, error)
	// ComputeCost returns the simulated cost of n words of pure
	// computation, which a transaction charges to the machine's clock.
	ComputeCost(n int64) int64
}

// Txn is one transaction's view of the store. Page handles returned by Page
// and AllocPage are stable for the life of the transaction; their decoded
// headers are the transaction's working state and become durable only
// through Commit.
type Txn interface {
	// PageSize returns the page size in bytes.
	PageSize() int
	// Root returns the B-tree root page number (0 = empty tree).
	Root() uint32
	// SetRoot changes the root pointer; committed atomically with the
	// transaction.
	SetRoot(no uint32)
	// Page opens the slotted page no.
	Page(no uint32) (*slotted.Page, error)
	// AllocPage allocates a fresh page and initialises it with the given
	// slotted type. The allocation is undone if the transaction does not
	// commit.
	AllocPage(typ byte) (uint32, *slotted.Page, error)
	// FreePage releases a page; it is reused only after commit.
	FreePage(no uint32)
	// OpEnd marks the end of one logical B-tree operation. PM-direct
	// schemes flush freshly written record bytes (clflush(record)) and,
	// under FAST, stage updated slot headers into the log.
	OpEnd()
	// Defragged tells the transaction that copy-on-write defragmentation
	// occurred, which disqualifies the in-place (FAST+) commit path.
	Defragged()
	// Relocate gives page no, which has just asked for defragmentation,
	// room for a size-byte cell by moving a few of its cells and committing
	// the move at once, and reports whether it did; a scheme that cannot
	// (any but FAST+) reports false, and the caller copies the page.
	Relocate(no uint32, size int) bool
	// Commit runs the scheme's commit protocol.
	Commit() error
	// Rollback abandons the transaction. Content already written into
	// page free space is dead (never referenced by a committed header).
	Rollback()
}

// MetaPageNo is the page number of the store's metadata page; shlog frames
// addressed to it carry encoded meta fields instead of a slot header.
const MetaPageNo = 0
