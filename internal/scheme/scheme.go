// Package scheme is the table of commit schemes: the one place a scheme is
// named, parsed, built on a fresh machine, and rebuilt and recovered over a
// surviving arena. FAST and FAST+ are internal/fast's two variants; the
// NVWAL, WAL and Journal baselines are internal/wal's three kinds.
package scheme

import (
	"errors"
	"fmt"
	"strings"

	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/wal"
)

// Scheme is one commit scheme.
type Scheme int

// The schemes in the order the figures print them: the paper's three, then
// the two extra baselines.
const (
	NVWAL Scheme = iota
	FAST
	FASTPlus
	WAL
	Journal
)

var (
	// All lists every scheme.
	All = []Scheme{NVWAL, FAST, FASTPlus, WAL, Journal}
	// Paper lists the three schemes the paper's figures compare.
	Paper = []Scheme{NVWAL, FAST, FASTPlus}
)

// names are the display names, equal to each store's Name().
var names = [...]string{"NVWAL", "FAST", "FAST+", "WAL", "Journal"}

// String returns the scheme's display name, which is also its store's
// Name().
func (s Scheme) String() string { return names[s] }

// ErrUnknown reports a name that is no scheme.
var ErrUnknown = errors.New("fasp: unknown scheme")

// Parse returns the scheme called name. Names are case-insensitive but
// exact: "fast+", "FAST+" and "Fast+" are FAST+, while "fast+ " is an error
// that wraps ErrUnknown and lists the valid names.
func Parse(name string) (Scheme, error) {
	lower := strings.ToLower(name)
	for _, s := range All {
		if lower == strings.ToLower(s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("%w %q (schemes: nvwal, fast, fast+, wal, journal)", ErrUnknown, name)
}

// IsFAST reports whether s is FAST or FAST+, the schemes that update pages
// in place in PM; the baselines keep a DRAM buffer cache and a log.
func (s Scheme) IsFAST() bool { return s == FAST || s == FASTPlus }

// Geometry sizes a store. A zero field keeps the store's default (see
// fast.Config and wal.Config). LogBytes sizes FAST's slot-header log or a
// baseline's log region; CheckpointBytes is the baselines' lazy-checkpoint
// trigger, which FAST, checkpointing eagerly, ignores.
type Geometry struct {
	PageSize, MaxPages        int
	LogBytes, CheckpointBytes int64
}

// Store is a scheme's store: the pager contract plus the PM arena that
// holds its pages and logs, the arena Reattach rebuilds it from.
type Store interface {
	pager.Store
	Arena() *pmem.Arena
}

// Create formats a fresh store of scheme s on sys.
func (s Scheme) Create(sys *pmem.System, g Geometry) Store {
	if s.IsFAST() {
		return fast.Create(sys, s.fastConfig(g))
	}
	return wal.Create(sys, s.walConfig(g))
}

// Attach opens a store of scheme s over an arena that survived a crash or
// was restored from a snapshot, without recovering it. The recovery
// experiment uses it to time Recover alone; everyone else wants Reattach.
func (s Scheme) Attach(arena *pmem.Arena, g Geometry) (Store, error) {
	if s.IsFAST() {
		st, err := fast.Attach(arena, s.fastConfig(g))
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	st, err := wal.Attach(arena, s.walConfig(g))
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Reattach is Attach followed by the scheme's recovery.
func (s Scheme) Reattach(arena *pmem.Arena, g Geometry) (Store, error) {
	st, err := s.Attach(arena, g)
	if err != nil {
		return nil, err
	}
	return st, st.Recover()
}

func (s Scheme) fastConfig(g Geometry) fast.Config {
	v := fast.SlotHeaderLogging
	if s == FASTPlus {
		v = fast.InPlaceCommit
	}
	return fast.Config{PageSize: g.PageSize, MaxPages: g.MaxPages, LogBytes: g.LogBytes, Variant: v}
}

func (s Scheme) walConfig(g Geometry) wal.Config {
	k := wal.NVWAL
	switch s {
	case WAL:
		k = wal.FullWAL
	case Journal:
		k = wal.Journal
	}
	return wal.Config{PageSize: g.PageSize, MaxPages: g.MaxPages,
		LogBytes: g.LogBytes, CheckpointBytes: g.CheckpointBytes, Kind: k}
}
