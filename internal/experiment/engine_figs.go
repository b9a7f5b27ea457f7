package experiment

import (
	"fmt"
	"io"

	"fasp/internal/obsv"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/workload"
)

// --- Figure 11: full query response time ---------------------------------------

// Fig11Row is one point of Figure 11: the response time of a complete
// INSERT statement through the SQL engine (parsing and statement execution
// included, unlike Figures 6–9).
type Fig11Row struct {
	Latency    int64
	Scheme     scheme.Scheme
	ResponseNS int64 // average per-statement response time
	P99NS      int64
	// ImprovementPct is the response-time improvement vs NVWAL at the same
	// latency (positive = faster than NVWAL); 0 for NVWAL itself.
	ImprovementPct float64
}

// RunFig11 reproduces Figure 11: per-query response time of the full SQL
// path, sweeping PM latency. The paper's headline is FAST+ improving query
// response time by up to 33 % over NVWAL.
func RunFig11(p Params) ([]Fig11Row, error) {
	p.fill()
	var rows []Fig11Row
	for _, lat := range LatencyPoints {
		base := int64(0)
		for _, s := range scheme.Paper {
			e, db := NewEngineEnv(s, pmem.DefaultLatencies(lat, lat), p)
			if _, err := db.Exec(`CREATE TABLE log (id INTEGER PRIMARY KEY, payload BLOB)`); err != nil {
				return nil, err
			}
			gen := workload.New(workload.Config{Seed: p.Seed, RecordSize: 64})
			clock := e.Sys.Clock()
			samples := make([]int64, 0, p.N)
			for i := 1; i <= p.N; i++ {
				stmt := workload.SQLInsert("log", uint64(i), gen.NextValue())
				t0 := clock.Now()
				if _, err := db.Exec(stmt); err != nil {
					return nil, fmt.Errorf("%v stmt %d: %w", s, i, err)
				}
				samples = append(samples, clock.Now()-t0)
			}
			var total int64
			for _, d := range samples {
				total += d
			}
			avg := total / int64(len(samples))
			row := Fig11Row{
				Latency:    lat,
				Scheme:     s,
				ResponseNS: avg,
				P99NS:      workload.Percentile(samples, 99),
			}
			if s == scheme.NVWAL {
				base = avg
			} else if base > 0 {
				row.ImprovementPct = 100 * (1 - float64(avg)/float64(base))
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// PrintFig11 renders Figure 11.
func PrintFig11(rows []Fig11Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 11: full SQL INSERT response time vs PM latency (parse+execute included)",
		"lat(ns)", "scheme", "us/stmt", "p99(us)", "vs NVWAL")
	for _, r := range rows {
		imp := "-"
		if r.Scheme != scheme.NVWAL {
			imp = fmt.Sprintf("%+.1f%%", r.ImprovementPct)
		}
		t.AddRow(LatencyLabel(r.Latency, r.Latency), r.Scheme.String(),
			obsv.UsecF(r.ResponseNS), obsv.UsecF(r.P99NS), imp)
	}
	t.Render(w)
}

// --- Figure 12: mixed-workload throughput ---------------------------------------

// Fig12Row is one point of Figure 12 (reconstructed companion of Figure 11:
// throughput of mixed CRUD statement streams through the full engine).
type Fig12Row struct {
	Latency int64
	Scheme  scheme.Scheme
	Mix     string
	// ThroughputKTPS is thousands of statements per simulated second.
	ThroughputKTPS float64
	PerStmtNS      int64
}

// Fig12Mixes are the workload mixes of the throughput experiment.
var Fig12Mixes = []struct {
	Name string
	Mix  workload.Mix
}{
	{"insert-only", workload.MobileMix},
	{"mixed-crud", workload.BalancedMix},
}

// RunFig12 reproduces the mixed-workload throughput comparison at PM
// 300/300 and 900/900.
func RunFig12(p Params) ([]Fig12Row, error) {
	p.fill()
	var rows []Fig12Row
	for _, lat := range []int64{300, 900} {
		for _, mix := range Fig12Mixes {
			for _, s := range scheme.Paper {
				e, db := NewEngineEnv(s, pmem.DefaultLatencies(lat, lat), p)
				if _, err := db.Exec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)`); err != nil {
					return nil, err
				}
				clock := e.Sys.Clock()
				start := clock.Now()
				err := fig12Stream(p, mix.Mix, func(stmt string) error {
					_, err := db.Exec(stmt)
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("%v mixed stmt: %w", s, err)
				}
				elapsed := clock.Now() - start
				rows = append(rows, Fig12Row{
					Latency: lat, Scheme: s, Mix: mix.Name,
					ThroughputKTPS: float64(p.N) / (float64(elapsed) / 1e9) / 1000,
					PerStmtNS:      elapsed / int64(p.N),
				})
			}
		}
	}
	return rows, nil
}

// fig12Stream hands exec the p.N statements of one Figure 12 arm. The stream
// is a function of (p.Seed, p.N, mix) alone — every draw, the choice of the
// row an UPDATE, DELETE or SELECT names included, comes from the seeded
// generator — so every scheme executes the same statements, run after run.
func fig12Stream(p Params, mix workload.Mix, exec func(stmt string) error) error {
	gen := workload.New(workload.Config{Seed: p.Seed, RecordSize: 64, KeySpace: uint64(p.N) * 4})
	nextID := 1
	var live []int // ids inserted and not deleted, in no particular order
	pick := func() (id, at int) {
		if len(live) == 0 {
			return 1, -1 // nothing to name: the statement matches no row
		}
		at = gen.Intn(len(live))
		return live[at], at
	}
	for i := 0; i < p.N; i++ {
		var stmt string
		switch gen.NextOp(mix) {
		case workload.OpInsert:
			stmt = workload.SQLInsert("kv", uint64(nextID), gen.NextValue())
			live = append(live, nextID)
			nextID++
		case workload.OpUpdate:
			id, _ := pick()
			stmt = fmt.Sprintf("UPDATE kv SET payload = x'%x' WHERE id = %d", gen.NextValue(), id)
		case workload.OpDelete:
			id, at := pick()
			stmt = fmt.Sprintf("DELETE FROM kv WHERE id = %d", id)
			if at >= 0 {
				live[at] = live[len(live)-1]
				live = live[:len(live)-1]
			}
		default:
			id, _ := pick()
			stmt = fmt.Sprintf("SELECT payload FROM kv WHERE id = %d", id)
		}
		if err := exec(stmt); err != nil {
			return err
		}
	}
	return nil
}

// PrintFig12 renders Figure 12.
func PrintFig12(rows []Fig12Row, w io.Writer) {
	t := obsv.NewTable(
		"Figure 12: full-engine throughput on statement streams (simulated kTPS)",
		"lat(ns)", "mix", "scheme", "kTPS", "us/stmt")
	for _, r := range rows {
		t.AddRow(LatencyLabel(r.Latency, r.Latency), r.Mix, r.Scheme.String(),
			r.ThroughputKTPS, obsv.UsecF(r.PerStmtNS))
	}
	t.Render(w)
}
