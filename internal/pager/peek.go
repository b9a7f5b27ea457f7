package pager

// SnapshotReader is the optional read-only view a Store can expose for
// optimistic (lock-free) readers. It serves the LAST COMMITTED state only:
// in-flight transaction writes must never be visible through it, and calls
// must not mutate any simulated machine state (no clock advance, no cache
// fill, no crash points). Implementations are NOT internally synchronized —
// callers must guarantee no commit runs concurrently (the shard engine's
// epoch gate provides exactly that window).
type SnapshotReader interface {
	// CommittedRoot returns the B-tree root page of the last committed
	// transaction (0 = empty tree).
	CommittedRoot() uint32
	// PeekCommitted copies committed bytes [off, off+len(dst)) of page no
	// into dst and returns the simulated read cost the locked path would
	// have charged. Out-of-range pages or offsets return an error (wrapping
	// ErrCorrupt) instead of panicking: a torn walk over a stale root must
	// surface as a retryable failure, not a process fault.
	PeekCommitted(no uint32, off int, dst []byte) (int64, error)
	// ComputeCost returns the simulated cost of n words of pure computation,
	// which the locked path charges to the machine's clock.
	ComputeCost(n int64) int64
}
