package fasp

// Adaptive per-shard tuning, facade side: the persisted scheme tag, the
// crash-safe online scheme migration, and the wiring that hands both to the
// shard engine. The policy itself lives in internal/tune (the controller)
// and internal/shard (when decisions are taken); this file owns everything
// that touches the facade's store constructors and PM layout.

import (
	"errors"
	"strings"

	"fasp/internal/fast"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/shard"
	"fasp/internal/tune"
	"fasp/internal/wal"
)

// TuneDecision is one adaptive-controller decision window; see KV.TuneTrace.
type TuneDecision = tune.Decision

// Each adaptive shard carries a 64-byte PM control block ("shard header")
// beside its database arena: a magic word plus the live scheme code. The tag
// is the migration commit point — recovery attaches whichever scheme the tag
// names, so flipping the single persisted word moves the shard between
// schemes failure-atomically.
const (
	ctlArenaBytes = 64
	ctlMagic      = 0x4641535043545231 // "FASPCTR1"
	ctlMagicOff   = 0
	ctlSchemeOff  = 8
)

// phaseMigrate brackets the simulated time a scheme migration spends
// checkpointing, copying, and reformatting, so migrations show up as their
// own bucket in phase breakdowns.
const phaseMigrate = "Migrate"

// schemeCode maps canonical scheme names to persisted tag codes. The codes
// are an on-media format: never reorder or reuse them.
func schemeCode(scheme string) (uint64, bool) {
	switch scheme {
	case SchemeFASTPlus:
		return 1, true
	case SchemeFAST:
		return 2, true
	case SchemeWAL:
		return 3, true
	case SchemeNVWAL:
		return 4, true
	case SchemeJournal:
		return 5, true
	}
	return 0, false
}

// codeScheme is schemeCode's inverse.
func codeScheme(code uint64) (string, bool) {
	for _, s := range []string{SchemeFASTPlus, SchemeFAST, SchemeWAL, SchemeNVWAL, SchemeJournal} {
		if c, _ := schemeCode(s); c == code {
			return s, true
		}
	}
	return "", false
}

// newCtlArena formats a shard's scheme-tag block on its machine, persisting
// the configured scheme as the initial tag.
func newCtlArena(sys *pmem.System, scheme string) *pmem.Arena {
	ctl := sys.NewArena("ctl", ctlArenaBytes, pmem.PM)
	code, _ := schemeCode(scheme)
	ctl.StoreU64(ctlMagicOff, ctlMagic)
	ctl.StoreU64(ctlSchemeOff, code)
	ctl.Persist(ctlMagicOff, 16)
	sys.Fence()
	return ctl
}

// writeCtlTag flips the persisted scheme tag: one 8-byte store (hardware-
// atomic), persist, fence — the commit point of a migration.
func writeCtlTag(ctl *pmem.Arena, scheme string) {
	code, _ := schemeCode(scheme)
	ctl.StoreU64(ctlSchemeOff, code)
	ctl.Persist(ctlSchemeOff, 8)
	ctl.Sys().Fence()
}

// readCtlTag resolves the persisted scheme tag; ok is false when there is no
// control block (adaptivity off) or it names no known scheme.
func readCtlTag(ctl *pmem.Arena) (string, bool) {
	if ctl == nil || ctl.LoadU64(ctlMagicOff) != ctlMagic {
		return "", false
	}
	return codeScheme(ctl.LoadU64(ctlSchemeOff))
}

// fastConfigFor / walConfigFor translate Options into the stores' configs —
// the single place the scheme string picks a variant or kind.
func fastConfigFor(opts Options) fast.Config {
	variant := fast.InPlaceCommit
	if opts.Scheme == SchemeFAST {
		variant = fast.SlotHeaderLogging
	}
	return fast.Config{PageSize: opts.PageSize, MaxPages: opts.MaxPages, Variant: variant}
}

func walConfigFor(opts Options) wal.Config {
	kind := wal.NVWAL
	switch opts.Scheme {
	case SchemeWAL:
		kind = wal.FullWAL
	case SchemeJournal:
		kind = wal.Journal
	}
	return wal.Config{PageSize: opts.PageSize, MaxPages: opts.MaxPages, Kind: kind}
}

// fastFamily reports whether a canonical scheme is served by fast.Store
// (shared arena layout across variants).
func fastFamily(scheme string) bool {
	return scheme == SchemeFASTPlus || scheme == SchemeFAST
}

// checkpointToCleanImage forces a store's committed state into its plain
// page image. WAL-family stores write every logged page home and truncate
// the log; FAST-family stores checkpoint eagerly at every commit and are
// already clean between transactions.
func checkpointToCleanImage(st pager.Store) {
	if cp, ok := st.(interface{ Checkpoint() }); ok {
		cp.Checkpoint()
	}
}

// storeMeta reads a store's cached page-zero metadata (current whenever the
// store is quiescent between transactions).
func storeMeta(st pager.Store) pager.Meta {
	if m, ok := st.(interface{ Meta() pager.Meta }); ok {
		return m.Meta()
	}
	return pager.Meta{}
}

// formatTargetArena creates and formats a fresh arena laid out for
// opts.Scheme on the shard's machine, returning the PM arena. Only the aux
// regions (free-page stack + slot-header log, or WAL master + log heap)
// matter: copyPages overwrites the page region with the source image.
func formatTargetArena(sys *pmem.System, opts Options) *pmem.Arena {
	if fastFamily(opts.Scheme) {
		return fast.Create(sys, fastConfigFor(opts)).Arena()
	}
	return wal.Create(sys, walConfigFor(opts)).Arena()
}

// copyPages copies the committed page image [0, NPages·PageSize) from the
// backend's live arena into na, persisting each page. The copy goes through
// the simulated cache (Load/Store), so it costs real simulated time and
// executes crash points like any other PM traffic.
func copyPages(be *shard.Backend, na *pmem.Arena, pageSize int) {
	n := storeMeta(be.Store).NPages
	buf := make([]byte, pageSize)
	for no := uint32(0); no < n; no++ {
		off := int64(no) * int64(pageSize)
		be.Arena.Load(off, buf)
		na.Store(off, buf)
		na.Persist(off, pageSize)
	}
}

// migrateStore switches one shard backend to the target commit scheme with a
// crash-safe protocol (DESIGN.md §11):
//
//  1. checkpoint the current scheme's log so the plain page image alone is
//     the complete committed state;
//  2. build the target image — fast+↔fast share the arena layout and reuse
//     the arena; across families a fresh arena is formatted for the target
//     scheme, the pages copied and persisted, and the copied free-list count
//     zeroed (neither family's free list survives the copy);
//  3. stage the new arena on the backend — the recovery metadata a real
//     system would keep beside the tag;
//  4. flip the persisted scheme tag — the atomic commit point;
//  5. attach the target store and fold the outgoing store's event counters
//     into the backend's monotonic base.
//
// A simulated power failure anywhere leaves the tag naming exactly one
// complete image: before the flip the old image is intact (the staged arena
// is discarded at recovery); after it, recovery adopts the staged arena.
// The caller (internal/shard) holds the shard quiescent: lock held, writer
// between group commits, optimistic readers drained.
func migrateStore(opts Options, be *shard.Backend, target string) (pager.Store, error) {
	if _, ok := schemeCode(target); !ok {
		return nil, badScheme(target)
	}
	if be.Ctl == nil {
		return nil, errors.New("fasp: scheme migration needs the scheme tag (AdaptiveScheme off)")
	}
	cur := strings.ToLower(be.Store.Name())
	if cur == target {
		return be.Store, nil
	}
	tgtOpts := opts
	tgtOpts.Scheme = target

	var ns pager.Store
	var err error
	be.Sys.Clock().InPhase(phaseMigrate, func() {
		checkpointToCleanImage(be.Store) // (1)

		if fastFamily(cur) && fastFamily(target) {
			// (2a) Same family: tag flip plus re-attach under the new variant.
			writeCtlTag(be.Ctl, target)
			if ns, err = attachStore(tgtOpts, be.Arena); err != nil {
				return
			}
			delta := storeCounters(be.Sys, be.Arena, be.Store)
			delta.Fence, delta.Flush = 0, 0 // same system, same arena: already monotonic
			be.EvBase = be.EvBase.Add(delta)
			return
		}

		// (2b) Cross family.
		na := formatTargetArena(be.Sys, tgtOpts)
		copyPages(be, na, opts.PageSize)
		// The WAL family keeps its free list volatile (FreeCount is never
		// persisted there) and the FAST family's free-page stack is not part
		// of the copied image, so the copied count is meaningless on the
		// target: zero it rather than let the target pop garbage. The
		// orphaned pages stay reclaimable through ReclaimExcept.
		pager.PokeFreeCount(na, 0, 0)
		be.Sys.Fence()

		be.NewArena, be.NewScheme = na, target              // (3)
		writeCtlTag(be.Ctl, target)                         // (4)
		if ns, err = attachStore(tgtOpts, na); err != nil { // (5)
			return
		}
		delta := storeCounters(be.Sys, be.Arena, be.Store)
		delta.Fence = 0 // fences are system-wide and survive the arena swap
		be.EvBase = be.EvBase.Add(delta)
		be.Arena = na
		be.NewArena, be.NewScheme = nil, ""
	})
	return ns, err
}

// reattachShard builds the engine's crash-recovery closure: resolve the
// persisted scheme tag (after a migration it overrides the configured
// scheme), adopt or discard a staged migration arena, and attach.
func reattachShard(opts Options) func(int, *shard.Backend) (pager.Store, error) {
	return func(_ int, be *shard.Backend) (pager.Store, error) {
		o := opts
		if s, ok := readCtlTag(be.Ctl); ok {
			o.Scheme = s
		}
		if be.NewArena != nil {
			if o.Scheme == be.NewScheme {
				// The crash landed after the tag flip: the staged image is
				// the committed one. Fold the outgoing store's events into
				// the monotonic base before abandoning its arena.
				delta := storeCounters(be.Sys, be.Arena, be.Store)
				delta.Fence = 0
				be.EvBase = be.EvBase.Add(delta)
				be.Arena = be.NewArena
			}
			be.NewArena, be.NewScheme = nil, ""
		}
		return attachStore(o, be.Arena)
	}
}

// tuneTemplate translates the adaptive Options into the controller template
// every shard copies, nil when no adaptive feature is on.
func tuneTemplate(opts Options) *tune.Config {
	if !opts.AdaptiveScheme && !opts.AdaptiveBatch && opts.DefragThreshold <= 0 {
		return nil
	}
	return &tune.Config{
		Scheme:      opts.Scheme,
		MaxBatch:    opts.MaxBatch,
		AdaptScheme: opts.AdaptiveScheme,
		AdaptBatch:  opts.AdaptiveBatch,
	}
}

// ShardScheme returns shard i's live commit scheme in canonical lower-case
// form ("fast+", "fast", "wal", ...). Under AdaptiveScheme it may differ
// from Options.Scheme. An out-of-range index is ErrBadShard.
func (kv *KV) ShardScheme(i int) (string, error) {
	if err := kv.checkShard(i); err != nil {
		return "", err
	}
	return kv.eng.ShardScheme(i), nil
}

// ShardMaxBatch returns shard i's live group-commit drain bound; under
// AdaptiveBatch it moves within [max(1, MaxBatch/4), MaxBatch·4]. An
// out-of-range index is ErrBadShard.
func (kv *KV) ShardMaxBatch(i int) (int, error) {
	if err := kv.checkShard(i); err != nil {
		return 0, err
	}
	return kv.eng.ShardMaxBatch(i), nil
}

// ShardFragmentation returns shard i's last measured committed-leaf
// fragmentation ratio (dead bytes / cell area), or -1 before any measurement
// or when DefragThreshold is off. An out-of-range index is ErrBadShard.
func (kv *KV) ShardFragmentation(i int) (float64, error) {
	if err := kv.checkShard(i); err != nil {
		return 0, err
	}
	return kv.eng.ShardFragmentation(i), nil
}

// TuneTrace returns a copy of shard i's adaptive-controller decision trace —
// one entry per closed decision window, a pure function of the op sequence
// on the deterministic ApplyBatch path — or nil when adaptive tuning is off.
// An out-of-range index is ErrBadShard.
func (kv *KV) TuneTrace(i int) ([]TuneDecision, error) {
	if err := kv.checkShard(i); err != nil {
		return nil, err
	}
	return kv.eng.ShardTrace(i), nil
}
