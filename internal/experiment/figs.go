package experiment

import (
	"io"

	"fasp/internal/obsv"
	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// --- Figure 6: insert-time breakdown vs PM latency ---------------------------

// Fig6Row is one bar of Figure 6.
type Fig6Row struct {
	Latency  int64 // symmetric read/write latency (ns)
	Scheme   scheme.Scheme
	SearchNS int64
	UpdateNS int64
	CommitNS int64
	TotalNS  int64
}

// RunFig6 reproduces Figure 6: the breakdown of time spent per single-record
// INSERT transaction (Search / Page Update / Commit) as PM read/write
// latency varies from DRAM-equal (120/120) to 1200/1200 ns.
func RunFig6(p Params) ([]Fig6Row, error) {
	p.fill()
	var rows []Fig6Row
	for _, lat := range LatencyPoints {
		for _, s := range scheme.Paper {
			e := NewEnv(s, pmem.DefaultLatencies(lat, lat), p)
			m, err := RunInserts(e, p.N, 64, 1, p.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig6Row{
				Latency:  lat,
				Scheme:   s,
				SearchNS: m.PhasePer(phase.Search),
				UpdateNS: m.PhasePer(phase.PageUpdate),
				CommitNS: m.PhasePer(phase.Commit),
				TotalNS:  m.PerInsertNS(),
			})
		}
	}
	return rows, nil
}

// PrintFig6 renders Figure 6 as the paper's table (values in µs/insert).
func PrintFig6(rows []Fig6Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 6: B-tree insertion time breakdown vs PM latency (us/insert)",
		"lat(ns)", "scheme", "search", "page-update", "commit", "total")
	for _, r := range rows {
		t.AddRow(LatencyLabel(r.Latency, r.Latency), r.Scheme.String(),
			obsv.UsecF(r.SearchNS), obsv.UsecF(r.UpdateNS),
			obsv.UsecF(r.CommitNS), obsv.UsecF(r.TotalNS))
	}
	t.Render(w)
}

// --- Figure 7: page-update breakdown ------------------------------------------

// Fig7Row is one bar of Figure 7.
type Fig7Row struct {
	Latency       int64
	Scheme        scheme.Scheme
	RecordWriteNS int64 // volatile buffer caching / in-place record insert
	SlotHeaderNS  int64 // copying slot headers to the log (stores only)
	FlushRecordNS int64 // clflush(record)
	DefragNS      int64
	UpdateNS      int64 // whole Page Update phase
}

// RunFig7 reproduces Figure 7: the decomposition of Page Update time.
func RunFig7(p Params) ([]Fig7Row, error) {
	p.fill()
	var rows []Fig7Row
	for _, lat := range []int64{300, 600, 900, 1200} {
		for _, s := range scheme.Paper {
			e := NewEnv(s, pmem.DefaultLatencies(lat, lat), p)
			m, err := RunInserts(e, p.N, 64, 1, p.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig7Row{
				Latency:       lat,
				Scheme:        s,
				RecordWriteNS: m.PhasePer(phase.RecordWrite),
				SlotHeaderNS:  m.PhasePer(phase.SlotHeader),
				FlushRecordNS: m.PhasePer(phase.FlushRecord),
				DefragNS:      m.PhasePer(phase.Defrag),
				UpdateNS:      m.PhasePer(phase.PageUpdate),
			})
		}
	}
	return rows, nil
}

// PrintFig7 renders Figure 7 (values in µs/insert).
func PrintFig7(rows []Fig7Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 7: Page Update time breakdown vs PM latency (us/insert)",
		"lat(ns)", "scheme", "record-write", "update-slot-hdr", "clflush(record)", "defragment", "page-update")
	for _, r := range rows {
		t.AddRow(LatencyLabel(r.Latency, r.Latency), r.Scheme.String(),
			obsv.UsecF(r.RecordWriteNS), obsv.UsecF(r.SlotHeaderNS),
			obsv.UsecF(r.FlushRecordNS), obsv.UsecF(r.DefragNS),
			obsv.UsecF(r.UpdateNS))
	}
	t.Render(w)
}

// --- Figure 8: commit-time breakdown vs PM write latency ----------------------

// Fig8Row is one bar of Figure 8.
type Fig8Row struct {
	WriteLatency int64
	Scheme       scheme.Scheme
	ComputeNS    int64 // NVWAL differential-logging computation
	HeapNS       int64 // NVWAL pmalloc/pfree
	LogFlushNS   int64
	CheckpointNS int64
	AtomicNS     int64 // FAST+ atomic 64B write
	MiscNS       int64 // WAL-index construction etc.
	CommitNS     int64
}

// RunFig8 reproduces Figure 8: the commit-time breakdown as PM *write*
// latency varies with read latency fixed at 300 ns.
func RunFig8(p Params) ([]Fig8Row, error) {
	p.fill()
	var rows []Fig8Row
	for _, wlat := range WriteLatencyPoints {
		for _, s := range scheme.Paper {
			e := NewEnv(s, pmem.DefaultLatencies(300, wlat), p)
			m, err := RunInserts(e, p.N, 64, 1, p.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig8Row{
				WriteLatency: wlat,
				Scheme:       s,
				ComputeNS:    m.PhasePer(phase.NVWALCompute),
				HeapNS:       m.PhasePer(phase.Heap),
				LogFlushNS:   m.PhasePer(phase.LogFlush),
				CheckpointNS: m.PhasePer(phase.Checkpoint),
				AtomicNS:     m.PhasePer(phase.AtomicWrite),
				MiscNS:       m.PhasePer(phase.Misc),
				CommitNS:     m.PhasePer(phase.Commit),
			})
		}
	}
	return rows, nil
}

// PrintFig8 renders Figure 8 (values in µs/insert).
func PrintFig8(rows []Fig8Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 8: Commit time breakdown vs PM write latency (read=300ns; us/insert)",
		"wlat(ns)", "scheme", "nvwal-comp", "heap-mgmt", "log-flush", "checkpoint", "atomic-64B", "misc", "commit")
	for _, r := range rows {
		t.AddRow(r.WriteLatency, r.Scheme.String(),
			obsv.UsecF(r.ComputeNS), obsv.UsecF(r.HeapNS),
			obsv.UsecF(r.LogFlushNS), obsv.UsecF(r.CheckpointNS),
			obsv.UsecF(r.AtomicNS), obsv.UsecF(r.MiscNS),
			obsv.UsecF(r.CommitNS))
	}
	t.Render(w)
}

// --- Figure 9: record-size sweep ----------------------------------------------

// Fig9Row is one point of Figures 9(a) and 9(b).
type Fig9Row struct {
	RecordSize int
	Scheme     scheme.Scheme
	TotalNS    int64   // 9(a): average insertion time
	Flushes    float64 // 9(b): clflush instructions per insertion
	WALBytes   int64   // per insert, for the discussion of frame sizes
	LogBytes   int64   // slot-header bytes per insert (FAST/FAST+)
}

// RecordSizes are Figure 9's x-axis.
var RecordSizes = []int{64, 128, 256, 512, 1024}

// RunFig9 reproduces Figure 9: insertion time (a) and clflush count (b) as
// the record size grows, at PM 300/300.
func RunFig9(p Params) ([]Fig9Row, error) {
	p.fill()
	var rows []Fig9Row
	for _, size := range RecordSizes {
		for _, s := range scheme.Paper {
			e := NewEnv(s, pmem.DefaultLatencies(300, 300), p)
			m, err := RunInserts(e, p.N, size, 1, p.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig9Row{
				RecordSize: size,
				Scheme:     s,
				TotalNS:    m.PerInsertNS(),
				Flushes:    m.FlushesPerInsert(),
				WALBytes:   m.WALBytes / int64(m.N),
				LogBytes:   m.LoggedBytes / int64(m.N),
			})
		}
	}
	return rows, nil
}

// PrintFig9 renders Figure 9.
func PrintFig9(rows []Fig9Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 9: record-size sweep at PM 300/300 — (a) us/insert, (b) clflush/insert",
		"rec(B)", "scheme", "us/insert", "clflush/insert", "walB/insert", "shlogB/insert")
	for _, r := range rows {
		t.AddRow(r.RecordSize, r.Scheme.String(), obsv.UsecF(r.TotalNS),
			r.Flushes, r.WALBytes, r.LogBytes)
	}
	t.Render(w)
}

// --- Figure 10: transaction-size sweep -----------------------------------------

// Fig10Row is one point of Figure 10 (reconstructed; see DESIGN.md).
type Fig10Row struct {
	Batch     int // inserts per transaction
	Scheme    scheme.Scheme
	PerOpNS   int64   // time per inserted record
	Flushes   float64 // clflush per record
	InPlace   int64   // in-place commits (FAST+ falls back beyond 1 page)
	LogCommit int64
}

// BatchSizes are Figure 10's x-axis: inserts per transaction.
var BatchSizes = []int{1, 2, 4, 8, 16, 32}

// RunFig10 reproduces the multi-record-transaction experiment: as a
// transaction grows beyond one page, FAST+ falls back to slot-header
// logging and the amortised commit cost of all schemes changes.
func RunFig10(p Params) ([]Fig10Row, error) {
	p.fill()
	var rows []Fig10Row
	for _, batch := range BatchSizes {
		for _, s := range scheme.Paper {
			e := NewEnv(s, pmem.DefaultLatencies(300, 300), p)
			m, err := RunInserts(e, p.N, 64, batch, p.Seed)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig10Row{
				Batch:     batch,
				Scheme:    s,
				PerOpNS:   m.PerInsertNS(),
				Flushes:   m.FlushesPerInsert(),
				InPlace:   m.InPlaceCommits,
				LogCommit: m.LogCommits,
			})
		}
	}
	return rows, nil
}

// PrintFig10 renders Figure 10.
func PrintFig10(rows []Fig10Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 10: inserts per transaction at PM 300/300 (per-record costs)",
		"txn-size", "scheme", "us/record", "clflush/record", "in-place-commits", "log-commits")
	for _, r := range rows {
		t.AddRow(r.Batch, r.Scheme.String(), obsv.UsecF(r.PerOpNS),
			r.Flushes, r.InPlace, r.LogCommit)
	}
	t.Render(w)
}
