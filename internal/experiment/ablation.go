package experiment

import (
	"io"
	"math/rand"

	"fasp/internal/btree"
	"fasp/internal/fast"
	"fasp/internal/htm"
	"fasp/internal/obsv"
	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// --- Ablation 1: all five schemes on the mobile workload ------------------------

// AblRow is one row of the scheme ablation.
type AblRow struct {
	Scheme   scheme.Scheme
	TotalNS  int64
	CommitNS int64
	Flushes  float64
	BytesLog int64 // bytes written to log/journal per insert
}

// RunAblationSchemes compares all five schemes — the paper's three plus the
// classic full-page WAL and rollback journal (Figure 1's mechanisms) — on
// the single-insert mobile workload at PM 300/300. It quantifies why the
// paper dismisses page-granularity logging outright.
func RunAblationSchemes(p Params) ([]AblRow, error) {
	p.fill()
	var rows []AblRow
	for _, s := range scheme.All {
		e := NewEnv(s, pmem.DefaultLatencies(300, 300), p)
		m, err := RunInserts(e, p.N, 64, 1, p.Seed)
		if err != nil {
			return nil, err
		}
		logBytes := m.WALBytes
		if s.IsFAST() {
			logBytes = m.LoggedBytes
		}
		rows = append(rows, AblRow{
			Scheme:   s,
			TotalNS:  m.PerInsertNS(),
			CommitNS: m.PhasePer(phase.Commit),
			Flushes:  m.FlushesPerInsert(),
			BytesLog: logBytes / int64(m.N),
		})
	}
	return rows, nil
}

// PrintAblationSchemes renders the scheme ablation.
func PrintAblationSchemes(rows []AblRow, w io.Writer) {
	t := obsv.NewTable(
		"Ablation: all recovery schemes, single-insert workload at PM 300/300",
		"scheme", "us/insert", "commit(us)", "clflush/insert", "logB/insert")
	for _, r := range rows {
		t.AddRow(r.Scheme.String(), obsv.UsecF(r.TotalNS),
			obsv.UsecF(r.CommitNS), r.Flushes, r.BytesLog)
	}
	t.Render(w)
}

// --- Ablation 2: page-size sweep --------------------------------------------------

// PageSizeRow is one row of the page-size ablation.
type PageSizeRow struct {
	PageSize int
	Scheme   scheme.Scheme
	TotalNS  int64
	Splits   int64
	InPlace  int64
	// Defrags and Coalesces are the copy-on-write page rewrites and the
	// free-list coalesces that avoided one (FAST/FAST+ only).
	Defrags, Coalesces int64
}

// RunAblationPageSize sweeps the database page size. Larger pages raise the
// cost of page-granular schemes but barely affect FAST's metadata-only
// logging; smaller pages split more often, pushing FAST+ off its in-place
// path more frequently.
func RunAblationPageSize(p Params) ([]PageSizeRow, error) {
	p.fill()
	var rows []PageSizeRow
	for _, ps := range []int{1024, 4096, 16384} {
		for _, s := range scheme.Paper {
			pp := p
			pp.PageSize = ps
			e := NewEnv(s, pmem.DefaultLatencies(300, 300), pp)
			m, err := RunInserts(e, p.N, 64, 1, p.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, PageSizeRow{
				PageSize: ps, Scheme: s,
				TotalNS: m.PerInsertNS(), Splits: m.Splits, InPlace: m.InPlaceCommits,
				Defrags: m.Defrags, Coalesces: m.Coalesces,
			})
		}
	}
	return rows, nil
}

// PrintAblationPageSize renders the page-size ablation.
func PrintAblationPageSize(rows []PageSizeRow, w io.Writer) {
	t := obsv.NewTable(
		"Ablation: page-size sweep at PM 300/300",
		"page(B)", "scheme", "us/insert", "splits", "in-place-commits", "defrags", "coalesces")
	for _, r := range rows {
		t.AddRow(r.PageSize, r.Scheme.String(), obsv.UsecF(r.TotalNS),
			r.Splits, r.InPlace, r.Defrags, r.Coalesces)
	}
	t.Render(w)
}

// --- Ablation 3: HTM best-effort aborts --------------------------------------------

// HTMAbortRow is one row of the HTM-reliability ablation.
type HTMAbortRow struct {
	AbortProb float64
	TotalNS   int64
	CommitNS  int64
	InPlace   int64
	Spurious  int64
}

// RunAblationHTMAborts injects spurious (best-effort) RTM aborts into FAST+
// at increasing probability, quantifying the cost of the paper's
// retry-until-success fallback handler (§3.2 footnote 1).
func RunAblationHTMAborts(p Params) ([]HTMAbortRow, error) {
	p.fill()
	var rows []HTMAbortRow
	for _, prob := range []float64{0, 0.01, 0.1, 0.5} {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		cfg := htm.DefaultConfig()
		if prob > 0 {
			rng := rand.New(rand.NewSource(p.Seed))
			cfg.InjectAbort = func() bool { return rng.Float64() < prob }
		}
		st := fast.Create(sys, fast.Config{
			PageSize: p.PageSize, MaxPages: p.MaxPages,
			Variant: fast.InPlaceCommit, HTM: cfg,
		})
		e := &Env{Scheme: scheme.FASTPlus, Sys: sys, Store: st, Tree: btree.New(st), PM: st.Arena()}
		m, err := RunInserts(e, p.N, 64, 1, p.Seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, HTMAbortRow{
			AbortProb: prob,
			TotalNS:   m.PerInsertNS(),
			CommitNS:  m.PhasePer(phase.Commit),
			InPlace:   m.InPlaceCommits,
			Spurious:  st.HTMStats().SpuriousAborts,
		})
	}
	return rows, nil
}

// PrintAblationHTMAborts renders the HTM ablation.
func PrintAblationHTMAborts(rows []HTMAbortRow, w io.Writer) {
	t := obsv.NewTable(
		"Ablation: FAST+ under best-effort HTM aborts at PM 300/300",
		"abort-prob", "us/insert", "commit(us)", "in-place-commits", "spurious-aborts")
	for _, r := range rows {
		t.AddRow(r.AbortProb, obsv.UsecF(r.TotalNS), obsv.UsecF(r.CommitNS),
			r.InPlace, r.Spurious)
	}
	t.Render(w)
}
