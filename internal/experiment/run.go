package experiment

import (
	"fmt"

	"fasp/internal/fast"
	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/wal"
	"fasp/internal/workload"
)

// InsertMeasurement aggregates one insert-workload run.
type InsertMeasurement struct {
	Scheme  scheme.Scheme
	N       int
	TotalNS int64            // simulated ns across the measured region
	Phases  map[string]int64 // phase totals (simulated ns)
	PM      pmem.Stats       // PM arena counter deltas
	Fences  int64
	// Scheme-level counters (zero-valued where not applicable).
	InPlaceCommits int64
	LogCommits     int64
	LoggedBytes    int64
	WALBytes       int64
	WALFrames      int64
	Splits         int64
	Defrags        int64
	Coalesces      int64 // failed page allocations satisfied by coalescing the free list
	GapAbsorbs     int64 // coalescing passes that returned a free run to the gap
}

// PerInsertNS returns the average simulated time per transaction.
func (m InsertMeasurement) PerInsertNS() int64 {
	if m.N == 0 {
		return 0
	}
	return m.TotalNS / int64(m.N)
}

// PhasePer returns a phase's average per transaction in ns.
func (m InsertMeasurement) PhasePer(name string) int64 {
	if m.N == 0 {
		return 0
	}
	return m.Phases[name] / int64(m.N)
}

// FlushesPerInsert returns the clflush instructions per transaction.
func (m InsertMeasurement) FlushesPerInsert() float64 {
	if m.N == 0 {
		return 0
	}
	return float64(m.PM.FlushCalls) / float64(m.N)
}

// RunInserts measures n single-record insert transactions of recSize-byte
// values with random keys (the paper's default microbenchmark), optionally
// batching batch inserts per transaction (batch > 1 exercises the
// multi-page logging paths, Figure 10).
func RunInserts(e *Env, n, recSize, batch int, seed int64) (InsertMeasurement, error) {
	if batch < 1 {
		batch = 1
	}
	gen := workload.New(workload.Config{Seed: seed, RecordSize: recSize})
	clock := e.Sys.Clock()
	clock.ResetPhases()
	pmBefore := e.PM.Stats()
	fencesBefore := e.Sys.Fences()
	start := clock.Now()

	txns := n / batch
	if txns == 0 {
		txns = 1
	}
	for t := 0; t < txns; t++ {
		if batch == 1 {
			if err := e.Tree.Insert(gen.NextKey(), gen.NextValue()); err != nil {
				return InsertMeasurement{}, fmt.Errorf("%v insert %d: %w", e.Scheme, t, err)
			}
			continue
		}
		tx, err := e.Tree.Begin()
		if err != nil {
			return InsertMeasurement{}, err
		}
		for b := 0; b < batch; b++ {
			if err := tx.Insert(gen.NextKey(), gen.NextValue()); err != nil {
				tx.Rollback()
				return InsertMeasurement{}, fmt.Errorf("%v batch insert: %w", e.Scheme, err)
			}
		}
		if err := tx.Commit(); err != nil {
			return InsertMeasurement{}, err
		}
	}

	m := InsertMeasurement{
		Scheme:  e.Scheme,
		N:       txns * batch,
		TotalNS: clock.Now() - start,
		Phases:  clock.Phases(),
		PM:      e.PM.Stats().Delta(pmBefore),
		Fences:  e.Sys.Fences() - fencesBefore,
	}
	switch st := e.Store.(type) {
	case *fast.Store:
		s := st.Stats()
		m.InPlaceCommits = s.InPlaceCommits
		m.LogCommits = s.LogCommits
		m.LoggedBytes = s.LoggedBytes
		m.Splits = s.Splits
		m.Defrags = s.Defrags
		m.Coalesces = s.Coalesces
		m.GapAbsorbs = s.GapAbsorbs
	case *wal.Store:
		s := st.Stats()
		m.WALBytes = s.WALBytes
		m.WALFrames = s.WALFrames
	}
	return m, nil
}

// CommitPhaseNames are Figure 8's breakdown components in display order.
var CommitPhaseNames = []string{
	phase.NVWALCompute, phase.Heap, phase.LogFlush,
	phase.Checkpoint, phase.AtomicWrite, phase.Misc,
}
