// Package phase names the simulated-clock accounting buckets used to
// reproduce the paper's time-breakdown figures. Top-level phases follow
// Figure 6 (Search / Page Update / Commit); sub-phases follow the
// decompositions of Figures 7 and 8. Because the clock attributes time to
// every open phase, sub-phase times are included in their parent totals,
// exactly like the stacked bars in the paper.
package phase

// Top-level phases (Figure 6).
const (
	// Search is the root-to-leaf B-tree traversal.
	Search = "Search"
	// PageUpdate runs from locating the leaf to finishing all page updates
	// in the buffer cache, excluding commit work.
	PageUpdate = "PageUpdate"
	// Commit is the transaction commit protocol.
	Commit = "Commit"
)

// Page-update sub-phases (Figure 7).
const (
	// RecordWrite is writing the record bytes: "in-place record insert"
	// for FAST/FAST+, "volatile buffer caching" for NVWAL.
	RecordWrite = "PageUpdate/record-write"
	// SlotHeader is copying updated slot headers to the slot-header log
	// (stores only; no flushes in this phase).
	SlotHeader = "PageUpdate/update-slot-header"
	// FlushRecord is the clflush(record) cost of persisting new record
	// bytes in page free space.
	FlushRecord = "PageUpdate/clflush-record"
	// Defrag is on-demand copy-on-write defragmentation.
	Defrag = "PageUpdate/defragment"
)

// Commit sub-phases (Figure 8).
const (
	// NVWALCompute is NVWAL's differential-logging computation.
	NVWALCompute = "Commit/nvwal-computation"
	// Heap is NVWAL's user-level PM heap management (pmalloc/pfree).
	Heap = "Commit/heap-management"
	// LogFlush is flushing log/WAL frames and the commit mark to PM.
	LogFlush = "Commit/log-flush"
	// Checkpoint is eager checkpointing of slot headers (FAST/FAST+).
	Checkpoint = "Commit/checkpointing"
	// FreeList is FAST/FAST+'s bookkeeping after a commit point: deferred
	// in-page frees written as free blocks, freed pages pushed on the
	// free-page stack. It nests inside Checkpoint after a logged commit and
	// directly inside Commit after an in-place one, so no figure's bar
	// changes; it gives those write-backs an owner of their own.
	FreeList = "Commit/free-list"
	// AtomicWrite is the HTM failure-atomic cache-line commit (FAST+).
	AtomicWrite = "Commit/atomic-64B-write"
	// Misc is residual commit bookkeeping (e.g. NVWAL's WAL-frame index
	// construction).
	Misc = "Commit/misc"
)
