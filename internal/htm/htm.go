// Package htm emulates the one Intel Restricted Transactional Memory (RTM)
// transaction the paper uses (§3.2): not for isolation or durability, but
// to obtain a *failure-atomic cache-line write*. The stores inside the
// transaction stay invisible (buffered in the core, never evictable) until
// XEND, so a crash anywhere inside it simply discards them, and after XEND
// the whole line is published to the cache at once. Durability then comes
// from an ordinary CLFLUSH *after* the transaction (clflush is illegal
// inside an RTM region).
//
// The emulator keeps RTM's best-effort nature: a write set that cannot fit
// one line is a capacity abort, and transactions may spuriously abort —
// injectable for testing — in which case the write is retried up to a
// budget before the caller falls back to software.
package htm

import (
	"errors"
	"fmt"

	"fasp/internal/pmem"
)

// Errors returned by Manager.AtomicLineWrite.
var (
	// ErrCapacity reports a deterministic capacity abort: the data spans a
	// cache-line boundary, so retrying cannot succeed and the caller must
	// use its software fallback (slot-header logging).
	ErrCapacity = errors.New("htm: transaction write set exceeds capacity")
	// ErrRetriesExhausted reports that spurious aborts persisted past the
	// retry budget.
	ErrRetriesExhausted = errors.New("htm: retries exhausted")
)

// Config tunes the emulated hardware transaction.
type Config struct {
	// MaxRetries bounds retries of spuriously aborted transactions before
	// AtomicLineWrite gives up with ErrRetriesExhausted (default 64).
	MaxRetries int
	// InjectAbort, if non-nil, is consulted at every XEND; returning true
	// forces a spurious (best-effort) abort. Used by tests to exercise the
	// fallback path.
	InjectAbort func() bool
}

// DefaultConfig is the paper's configuration.
func DefaultConfig() Config { return Config{MaxRetries: 64} }

// Stats counts transaction outcomes. A line write never reaches a capacity
// abort inside the transaction (a spanning write is refused before it
// begins) nor an explicit one, so CapacityAborts and ExplicitAborts stay 0;
// they are kept so that an abort share sums every RTM abort kind.
type Stats struct {
	Begins         int64
	Commits        int64
	CapacityAborts int64
	ExplicitAborts int64
	SpuriousAborts int64
}

// Manager issues hardware transactions against arenas of one pmem.System.
type Manager struct {
	sys   *pmem.System
	cfg   Config
	stats Stats
}

// NewManager creates a Manager for the system with the given config.
func NewManager(sys *pmem.System, cfg Config) *Manager {
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = DefaultConfig().MaxRetries
	}
	return &Manager{sys: sys, cfg: cfg}
}

// Stats returns a copy of the outcome counters.
func (m *Manager) Stats() Stats { return m.stats }

// AtomicLineWrite performs the paper's failure-atomic cache-line write: an
// RTM transaction stores data (which must lie within a single cache line),
// and a CLFLUSH + fence after XEND makes it durable. A crash at any point
// leaves the line either entirely old or entirely new in PM. Returns
// ErrCapacity if data spans a line boundary, and ErrRetriesExhausted,
// leaving the line untouched, if every try aborted spuriously.
func (m *Manager) AtomicLineWrite(arena *pmem.Arena, off int64, data []byte) error {
	if len(data) > pmem.CacheLineSize ||
		off&^(pmem.CacheLineSize-1) != (off+int64(len(data))-1)&^(pmem.CacheLineSize-1) {
		return fmt.Errorf("%w: %d bytes at offset %d", ErrCapacity, len(data), off)
	}
	// The stores are buffered one 8-byte fragment at a time; a crash at
	// any of them discards the whole transaction.
	frags := 0
	if len(data) > 0 {
		frags = int((off+int64(len(data))-1)/pmem.WordSize - off/pmem.WordSize + 1)
	}
	for try := 0; ; try++ {
		if try > m.cfg.MaxRetries {
			return ErrRetriesExhausted
		}
		m.stats.Begins++
		for range frags {
			m.sys.CrashTick()
		}
		if m.cfg.InjectAbort == nil || !m.cfg.InjectAbort() {
			break
		}
		m.stats.SpuriousAborts++
	}
	// XEND: the buffered line is published to the cache at once — the
	// emulator suspends crash injection during publication.
	arena.AtomicRegion(func() { arena.Store(off, data) })
	m.stats.Commits++
	arena.FlushLine(off)
	m.sys.Fence()
	return nil
}
