// Package pmem emulates a byte-addressable persistent memory (PM) subsystem
// with an explicit CPU-cache overlay, cache-line flush and memory-fence
// primitives, a deterministic simulated clock, and crash simulation.
//
// The emulator plays the role Quartz plays in the paper: instead of injecting
// wall-clock delays, every architectural event (cache-line fill, cache-line
// write-back, fence, word store) advances a virtual clock by a configurable
// latency. Experiments therefore measure *simulated* nanoseconds, which makes
// the paper's figures reproducible bit-for-bit on any machine.
//
// Persistence model (the assumption set of the paper, §3.2):
//
//   - Stores go to the volatile CPU cache, never directly to PM.
//   - A store to a line not present in the cache fills the line first
//     (write-allocate), paying the read latency.
//   - CLFLUSH writes a dirty line back to PM and pays the write latency.
//   - PM writes are failure-atomic at 8-byte granularity.
//   - On a crash, each dirty line independently may or may not have been
//     evicted (written back) by the hardware; unevicted dirty data is lost.
//
// Arenas are not safe for concurrent use; a database handle built on top of
// an arena serialises access.
package pmem

// Architectural constants shared by the whole system.
const (
	// lineShift turns a byte offset into its line number.
	lineShift = 6
	// CacheLineSize is the unit of CLFLUSH and of HTM failure-atomic writes.
	CacheLineSize = 1 << lineShift
	// WordSize is the PM failure-atomic write granularity (8 bytes).
	WordSize = 8
	// WordsPerLine is the number of failure-atomic words per cache line.
	WordsPerLine = CacheLineSize / WordSize
)

// LatencyModel holds the cost, in simulated nanoseconds, of each
// architectural event. The defaults correspond to the paper's testbed
// (120 ns local DRAM) and its default PM emulation point (300/300 ns).
type LatencyModel struct {
	// PMRead is the latency of filling one cache line from PM.
	PMRead int64
	// PMWrite is the latency of writing one cache line back to PM
	// (charged by CLFLUSH and by dirty evictions).
	PMWrite int64
	// DRAMRead is the latency of one cache-line access to DRAM.
	DRAMRead int64
	// DRAMWrite is the latency of one cache-line write to DRAM.
	DRAMWrite int64
	// Fence is the cost of a memory-fence instruction (MFENCE/SFENCE).
	Fence int64
	// Store is the cost of one 8-byte store that hits the cache.
	Store int64
	// CacheHit is the cost of reading a line already present in the cache.
	CacheHit int64
	// CPUWord is the cost of one word of pure computation (compares,
	// copies in registers); used to model software overheads such as
	// NVWAL's differential-logging computation.
	CPUWord int64
	// CacheBytes bounds each arena's CPU-cache overlay (the share of the
	// last-level cache available to it). 0 selects the 2 MiB default. The
	// paper's testbed has a 40 MB LLC; 2 MiB per arena keeps hot B-tree
	// levels and allocator metadata cached while leaf pages of a grown
	// database still miss, reproducing the "CPU cache effect" the paper
	// observes without flattening the latency sweeps.
	CacheBytes int64
}

// DefaultLatencies returns the paper's default configuration: DRAM at
// 120 ns and PM at the given read/write latencies.
func DefaultLatencies(pmRead, pmWrite int64) LatencyModel {
	return LatencyModel{
		PMRead:    pmRead,
		PMWrite:   pmWrite,
		DRAMRead:  120,
		DRAMWrite: 120,
		Fence:     30,
		Store:     1,
		CacheHit:  2,
		CPUWord:   1,
	}
}
