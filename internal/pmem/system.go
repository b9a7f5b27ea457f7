package pmem

// System owns the simulated clock, the latency model, the crash injector and
// every memory arena. One System corresponds to one machine in the paper's
// testbed; all arenas share its clock, so time spent in DRAM and PM composes
// into a single timeline.
type System struct {
	clock    *Clock
	lat      LatencyModel
	arenas   []*Arena
	injector crashInjector
	fences   int64
}

// NewSystem creates a machine with the given latency model.
func NewSystem(lat LatencyModel) *System {
	return &System{clock: NewClock(), lat: lat}
}

// Clock returns the system's simulated clock.
func (s *System) Clock() *Clock { return s.clock }

// Latencies returns the latency model the system was built with.
func (s *System) Latencies() LatencyModel { return s.lat }

// Kind selects the medium an arena models.
type Kind int

const (
	// PM is byte-addressable persistent memory behind the CPU cache.
	PM Kind = iota
	// DRAM is volatile memory; its contents vanish at a crash.
	DRAM
)

// NewArena allocates an arena of the given size (rounded up to a whole
// number of cache lines) on the chosen medium.
func (s *System) NewArena(name string, size int64, kind Kind) *Arena {
	if size <= 0 {
		panic("pmem: arena size must be positive")
	}
	if r := size % CacheLineSize; r != 0 {
		size += CacheLineSize - r
	}
	cacheBytes := s.lat.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 2 << 20
	}
	a := &Arena{
		name:     name,
		kind:     kind,
		sys:      s,
		med:      newMedium(size),
		maxLines: int(cacheBytes / CacheLineSize),
		freeHead: noSlot,
		ringHead: noSlot,
	}
	if a.maxLines < 8 {
		a.maxLines = 8
	}
	// One table entry per line of the arena (zero = not resident); the slab
	// gets capacity for every resident line plus the one transient
	// over-capacity fill.
	a.index = make([]int32, size>>lineShift)
	a.slab = make([]cacheLine, 0, a.maxLines+1)
	if kind == PM {
		a.readNS, a.writeNS = s.lat.PMRead, s.lat.PMWrite
	} else {
		a.readNS, a.writeNS = s.lat.DRAMRead, s.lat.DRAMWrite
	}
	s.arenas = append(s.arenas, a)
	return a
}

// Fence executes a memory fence (MFENCE/SFENCE): a crash after the fence is
// guaranteed to see every previously flushed line in PM. In the emulator
// flushes already reach the medium synchronously, so the fence only costs
// time and is counted; protocols still issue it at every point the paper
// requires so the counts are faithful.
func (s *System) Fence() {
	s.fences++
	s.clock.Advance(s.lat.Fence)
}

// Fences returns the number of fences executed so far.
func (s *System) Fences() int64 { return s.fences }

// Compute charges the cost of n words of pure CPU work (compares, register
// copies). Used to model software overheads such as NVWAL's differential
// logging computation.
func (s *System) Compute(nwords int64) {
	if nwords > 0 {
		s.clock.Advance(s.ComputeCost(nwords))
	}
}

// ComputeCost returns what Compute(nwords) charges, without charging it.
func (s *System) ComputeCost(nwords int64) int64 { return max(nwords, 0) * s.lat.CPUWord }

// ComputeNS charges d nanoseconds of CPU work directly.
func (s *System) ComputeNS(d int64) { s.clock.Advance(d) }

// CrashAfter arms the crash injector: a simulated power failure fires after
// n further crash points (word stores and flushes) execute. The failure is
// delivered as a panic that RunToCrash recovers.
func (s *System) CrashAfter(n int64) {
	s.injector.armed = true
	s.injector.remaining = n
}

// DisarmCrash cancels a pending injected crash.
func (s *System) DisarmCrash() { s.injector.armed = false }

// CrashPoints returns the total number of crash points executed since the
// system was created. Run a workload once uncrashed to learn its crash-point
// count, then sweep CrashAfter over [0, count) to explore every failure
// point.
func (s *System) CrashPoints() int64 { return s.injector.ticks }

// CrashTick registers one externally defined crash point (the HTM emulator
// uses this for transactional stores, which do not touch the cache).
func (s *System) CrashTick() { s.injector.tick() }

// RunToCrash executes fn, recovering the injected-crash panic if it fires.
// It reports whether the run crashed. On a crash the clock's phase stack is
// cleared (the "CPU" stopped mid-phase). The caller then invokes Crash to
// apply the memory-loss semantics before recovering.
func (s *System) RunToCrash(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashSignal); ok {
				crashed = true
				s.clock.ClearStack()
				return
			}
			panic(r)
		}
	}()
	fn()
	return false
}

// Crash applies power-failure semantics to every arena: DRAM contents are
// lost; for PM arenas each dirty cache line is independently written back
// (as if evicted just before the failure) with probability opts.EvictProb,
// and otherwise lost. Explicitly flushed data always survives.
//
// Crash panics if opts fails CrashOptions.Validate — an out-of-range
// eviction probability is a harness bug, and silently clamping it would
// corrupt the crash schedule being explored.
func (s *System) Crash(opts CrashOptions) {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	s.injector.armed = false
	evict := opts.evictFn()
	for _, a := range s.arenas {
		a.crash(evict)
	}
}
