package experiment

import (
	"fmt"
	"io"

	"fasp/internal/btree"
	"fasp/internal/obsv"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/workload"
)

// RecoveryRow is one point of the recovery-time experiment.
type RecoveryRow struct {
	Scheme scheme.Scheme
	Txns   int   // committed transactions since the last checkpoint
	NS     int64 // simulated recovery time
}

// RecoveryPoints are the transactions-since-checkpoint sweep.
var RecoveryPoints = []int{100, 1000, 5000, 20000}

// RunRecovery measures crash-recovery time as a function of the work
// accumulated since the last checkpoint. The experiment substantiates the
// design argument behind the paper's *eager* checkpointing (§3.3): FAST's
// slot-header log never holds more than one transaction, so its recovery
// cost is constant, while NVWAL must replay every uncheckpointed WAL frame.
func RunRecovery(p Params) ([]RecoveryRow, error) {
	p.fill()
	var rows []RecoveryRow
	for _, txns := range RecoveryPoints {
		for _, s := range scheme.Paper {
			sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
			g := scheme.Geometry{PageSize: p.PageSize, MaxPages: txns/2 + 4096}
			if !s.IsFAST() {
				// Disable lazy checkpointing so the WAL accumulates all
				// transactions, the worst case NVWAL's laziness permits.
				g.LogBytes, g.CheckpointBytes = 1<<30, 1<<62
			}
			st := s.Create(sys, g)
			if err := fill(st, txns, p.Seed); err != nil {
				return nil, err
			}
			// Power failure; committed data must survive, so nothing is
			// evicted beyond what the protocols flushed.
			sys.Crash(pmem.EvictNone)
			st2, err := s.Attach(st.Arena(), g)
			if err != nil {
				return nil, err
			}
			t0 := sys.Clock().Now()
			if err := st2.Recover(); err != nil {
				return nil, fmt.Errorf("%v recover: %w", s, err)
			}
			rows = append(rows, RecoveryRow{Scheme: s, Txns: txns, NS: sys.Clock().Now() - t0})
		}
	}
	return rows, nil
}

// fill inserts txns single-record transactions through the B-tree.
func fill(st pager.Store, txns int, seed int64) error {
	tr := btree.New(st)
	gen := workload.New(workload.Config{Seed: seed, RecordSize: 64})
	for i := 0; i < txns; i++ {
		if err := tr.Insert(gen.NextKey(), gen.NextValue()); err != nil {
			return err
		}
	}
	return nil
}

// PrintRecovery renders the recovery experiment.
func PrintRecovery(rows []RecoveryRow, w io.Writer) {
	t := obsv.NewTable(
		"Recovery time vs transactions since last checkpoint (PM 300/300)",
		"txns", "scheme", "recovery(us)")
	for _, r := range rows {
		t.AddRow(r.Txns, r.Scheme.String(), obsv.UsecF(r.NS))
	}
	t.Render(w)
}
