// Benchmarks regenerating the paper's evaluation. Each BenchmarkFigNN runs
// the corresponding figure driver (internal/experiment) and reports its
// headline metric via b.ReportMetric, in addition to Go's wall-clock ns/op
// for the simulation itself. `go test -bench . -benchmem` prints every
// figure's key numbers; `cmd/faspbench` prints the full tables.
//
// Scale note: benchmarks default to 2,000 transactions per data point
// (the paper uses 100,000) so a full -bench=. run stays in seconds; the
// shapes are stable from ~1,000 transactions up.
package fasp_test

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"runtime/pprof"
	"strconv"
	"testing"

	"fasp"
	"fasp/internal/btree"
	"fasp/internal/experiment"
	"fasp/internal/fast"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
	"fasp/internal/workload"
)

const benchN = 2000

func benchParams() experiment.Params {
	return experiment.Params{N: benchN, PageSize: 4096, Seed: 42}
}

// BenchmarkInsert measures the end-to-end single-insert transaction on each
// scheme at the paper's default PM 300/300 point, reporting simulated
// microseconds per transaction alongside Go ns/op.
func BenchmarkInsert(b *testing.B) {
	for _, s := range scheme.All {
		b.Run(s.String(), func(b *testing.B) {
			// Size the page space for the iteration count Go chose.
			p := benchParams()
			p.N = b.N + benchN
			p.MaxPages = 0 // derive from N
			e := experiment.NewEnv(s, pmem.DefaultLatencies(300, 300), p)
			gen := workload.New(workload.Config{Seed: 42, RecordSize: 64})
			start := e.Sys.Clock().Now()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Tree.Insert(gen.NextKey(), gen.NextValue()); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sim := e.Sys.Clock().Now() - start
			b.ReportMetric(float64(sim)/float64(b.N)/1000, "sim-us/txn")
		})
	}
}

// BenchmarkGet measures point lookups on a pre-populated FAST+ tree.
func BenchmarkGet(b *testing.B) {
	e := experiment.NewEnv(scheme.FASTPlus, pmem.DefaultLatencies(300, 300), benchParams())
	gen := workload.New(workload.Config{Seed: 42, RecordSize: 64})
	var keys [][]byte
	for i := 0; i < benchN; i++ {
		k := gen.NextKey()
		keys = append(keys, k)
		if err := e.Tree.Insert(k, gen.NextValue()); err != nil {
			b.Fatal(err)
		}
	}
	start := e.Sys.Clock().Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := e.Tree.Get(keys[i%len(keys)]); err != nil || !ok {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	sim := e.Sys.Clock().Now() - start
	b.ReportMetric(float64(sim)/float64(b.N)/1000, "sim-us/get")
}

// BenchmarkSQLInsert measures the full SQL path (Figures 11–12's subject).
func BenchmarkSQLInsert(b *testing.B) {
	for _, scheme := range []string{fasp.SchemeNVWAL, fasp.SchemeFAST, fasp.SchemeFASTPlus} {
		b.Run(scheme, func(b *testing.B) {
			db, err := fasp.Open(fasp.Options{Scheme: scheme})
			if err != nil {
				b.Fatal(err)
			}
			db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY, payload BLOB)`)
			gen := workload.New(workload.Config{Seed: 42, RecordSize: 64})
			start := db.SimulatedNS()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				stmt := workload.SQLInsert("t", uint64(i+1), gen.NextValue())
				if _, err := db.Exec(stmt); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(db.SimulatedNS()-start)/float64(b.N)/1000, "sim-us/stmt")
		})
	}
}

// BenchmarkFig06 regenerates Figure 6 and reports the FAST+ vs NVWAL
// total-time speedup at the 300/300 point.
func BenchmarkFig06(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig6(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var nv, fp int64
		for _, r := range rows {
			if r.Latency == 300 && r.Scheme == scheme.NVWAL {
				nv = r.TotalNS
			}
			if r.Latency == 300 && r.Scheme == scheme.FASTPlus {
				fp = r.TotalNS
			}
		}
		b.ReportMetric(float64(nv)/float64(fp), "speedup@300")
	}
}

// BenchmarkFig07 regenerates Figure 7 and reports FAST+'s clflush(record)
// share of Page Update at 300/300.
func BenchmarkFig07(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig7(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Latency == 300 && r.Scheme == scheme.FASTPlus && r.UpdateNS > 0 {
				b.ReportMetric(100*float64(r.FlushRecordNS)/float64(r.UpdateNS), "clflush-pct")
			}
		}
	}
}

// BenchmarkFig08 regenerates Figure 8 and reports the paper's headline:
// NVWAL commit overhead / FAST+ commit overhead (paper: ~6x).
func BenchmarkFig08(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig8(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		var nv, fp int64
		for _, r := range rows {
			if r.WriteLatency == 900 && r.Scheme == scheme.NVWAL {
				nv = r.CommitNS
			}
			if r.WriteLatency == 900 && r.Scheme == scheme.FASTPlus {
				fp = r.CommitNS
			}
		}
		b.ReportMetric(float64(nv)/float64(fp), "commit-ratio@900w")
	}
}

// BenchmarkFig09 regenerates Figure 9 and reports clflush/insert for FAST+
// at 64-byte records.
func BenchmarkFig09(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig9(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.RecordSize == 64 && r.Scheme == scheme.FASTPlus {
				b.ReportMetric(r.Flushes, "clflush/insert")
			}
		}
	}
}

// BenchmarkFig10 regenerates Figure 10 and reports the per-record cost of
// 8-insert transactions under FAST+ (the slot-header-logging fallback).
func BenchmarkFig10(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig10(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Batch == 8 && r.Scheme == scheme.FASTPlus {
				b.ReportMetric(float64(r.PerOpNS)/1000, "sim-us/record@8")
			}
		}
	}
}

// BenchmarkFig11 regenerates Figure 11 and reports FAST+'s end-to-end
// response-time improvement over NVWAL at 300/300 (paper: up to 33%).
func BenchmarkFig11(b *testing.B) {
	p := benchParams()
	p.N = 1000
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig11(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Latency == 300 && r.Scheme == scheme.FASTPlus {
				b.ReportMetric(r.ImprovementPct, "improvement-pct@300")
			}
		}
	}
}

// BenchmarkFig12 regenerates Figure 12 and reports FAST+'s mixed-workload
// throughput at 300/300.
func BenchmarkFig12(b *testing.B) {
	p := benchParams()
	p.N = 1000
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunFig12(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Latency == 300 && r.Scheme == scheme.FASTPlus && r.Mix == "mixed-crud" {
				b.ReportMetric(r.ThroughputKTPS, "sim-kTPS")
			}
		}
	}
}

// BenchmarkAblationSchemes compares all five recovery schemes.
func BenchmarkAblationSchemes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunAblationSchemes(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == scheme.Journal {
				b.ReportMetric(float64(r.BytesLog), "journalB/insert")
			}
		}
	}
}

// BenchmarkAblationPageSize sweeps the page size.
func BenchmarkAblationPageSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunAblationPageSize(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.PageSize == 16384 && r.Scheme == scheme.FASTPlus {
				b.ReportMetric(float64(r.TotalNS)/1000, "sim-us@16K")
			}
		}
	}
}

// BenchmarkAblationHTMAborts quantifies the retry cost of best-effort HTM.
func BenchmarkAblationHTMAborts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunAblationHTMAborts(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		base, worst := rows[0].TotalNS, rows[len(rows)-1].TotalNS
		b.ReportMetric(100*(float64(worst)/float64(base)-1), "slowdown-pct@p0.5")
	}
}

// BenchmarkRecovery measures crash recovery itself: the time to recover a
// store whose crash interrupted a committing transaction. The crashed PM
// image is prepared once; every iteration restores it and runs recovery,
// as a real restart would.
func BenchmarkRecovery(b *testing.B) {
	cfg := fast.Config{PageSize: 4096, MaxPages: 1024, Variant: fast.InPlaceCommit}
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	st := fast.Create(sys, cfg)
	tree := btree.New(st)
	gen := workload.New(workload.Config{Seed: 42, RecordSize: 64})
	for j := 0; j < 200; j++ {
		if err := tree.Insert(gen.NextKey(), gen.NextValue()); err != nil {
			b.Fatal(err)
		}
	}
	// Crash in the middle of the next transaction's commit.
	sys.CrashAfter(150)
	sys.RunToCrash(func() {
		for {
			if err := tree.Insert(gen.NextKey(), gen.NextValue()); err != nil {
				b.Fatal(err)
			}
		}
	})
	sys.Crash(pmem.CrashOptions{Seed: 42, EvictProb: 0.5})
	img := st.Arena().MediumSnapshot()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := st.Arena().RestoreMedium(img); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		ns, err := fast.Attach(st.Arena(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := ns.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoverySweep runs the recovery-time experiment and reports the
// ratio between NVWAL's WAL replay and FAST+'s constant-time recovery at
// the largest uncheckpointed-work point.
func BenchmarkRecoverySweep(b *testing.B) {
	p := benchParams()
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunRecovery(p)
		if err != nil {
			b.Fatal(err)
		}
		var nv, fp int64
		last := experiment.RecoveryPoints[len(experiment.RecoveryPoints)-1]
		for _, r := range rows {
			if r.Txns == last && r.Scheme == scheme.NVWAL {
				nv = r.NS
			}
			if r.Txns == last && r.Scheme == scheme.FASTPlus {
				fp = r.NS + 1
			}
		}
		b.ReportMetric(float64(nv)/float64(fp), "replay-ratio")
	}
}

// BenchmarkWriteAmplification reports FAST+'s PM write amplification
// (physical PM bytes per logical byte inserted).
func BenchmarkWriteAmplification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.RunWriteAmplification(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Scheme == scheme.FASTPlus {
				b.ReportMetric(r.Amplification, "amplification")
			}
		}
	}
}

// kvChurnPreload is the record count BenchmarkKVChurn loads before it
// measures: the kv-write workload's, about 26 MiB of 4 KiB pages, so leaves
// miss the 2 MiB emulated cache and only the upper tree levels stay in it.
const kvChurnPreload = 100_000

// BenchmarkKVChurn runs the kv-write workload's op shape on the fasp.KV
// facade with its defaults (FAST+, one shard, 4 KiB pages): a preload, then
// 35 % inserts of new keys, 30 % updates of live keys to a freshly drawn
// value length, and 35 % deletes of live keys, with 8-byte keys uniform over
// the live set and values of 32 to 256 bytes. It reports simulated
// microseconds per op next to Go's ns/op and allocs/op. The measured loop
// runs under the pprof label phase=churn, so a CPU profile of it can leave
// out the preload (`make profile`).
func BenchmarkKVChurn(b *testing.B) {
	kv, err := fasp.OpenKV(fasp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	rng := rand.New(rand.NewSource(1))
	var live []uint64
	nextID := uint64(0)
	key := func(dst []byte, id uint64) {
		z := id*0x9E3779B97F4A7C15 + 0x9E3779B97F4A7C15 // splitmix64: spread ids over the key space
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		binary.BigEndian.PutUint64(dst, z^z>>31)
	}
	valBuf := make([]byte, 256)
	rng.Read(valBuf)
	drawVal := func() []byte { return valBuf[:32+rng.Intn(256-32+1)] }
	for done := 0; done < kvChurnPreload; {
		ops := make([]fasp.Op, 0, 4096)
		for ; len(ops) < cap(ops) && done < kvChurnPreload; done++ {
			k := make([]byte, 8)
			key(k, nextID)
			live = append(live, nextID)
			nextID++
			ops = append(ops, fasp.Op{Kind: fasp.OpInsert, Key: k, Val: drawVal()})
		}
		for _, err := range kv.ApplyBatch(ops) {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	var k [8]byte
	sim0 := kv.SimulatedNS()
	b.ReportAllocs()
	b.ResetTimer()
	pprof.Do(context.Background(), pprof.Labels("phase", "churn"), func(context.Context) {
		for i := 0; i < b.N; i++ {
			u := rng.Intn(100)
			switch {
			case u < 35 || len(live) == 0:
				key(k[:], nextID)
				live = append(live, nextID)
				nextID++
				err = kv.Insert(k[:], drawVal())
			case u < 65:
				key(k[:], live[rng.Intn(len(live))])
				err = kv.Put(k[:], drawVal())
			default:
				j := rng.Intn(len(live))
				key(k[:], live[j])
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
				err = kv.Delete(k[:])
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(kv.SimulatedNS()-sim0)/float64(b.N)/1000, "sim-us/op")
}

// sqlStatementsPreload is the row count BenchmarkSQLStatements loads before
// it measures: the sql-insert workload's, about 6 MiB of 4 KiB table pages,
// three times the 2 MiB emulated cache.
const sqlStatementsPreload = 50_000

// BenchmarkSQLStatements runs the sql-insert workload's statement stream on
// the fasp.DB facade with its defaults (FAST+, 4 KiB pages) over the table
// kv(id INTEGER PRIMARY KEY, payload BLOB): a preload in 64-row INSERTs,
// then 35 % single-row INSERTs of the next id, 35 % DELETEs of the oldest
// row, 20 % SELECTs of a uniform live id and 10 % UPDATEs of a uniform live
// id, with payloads of 32 to 128 bytes written as blob literals. It reports
// simulated microseconds per statement next to Go's ns/op and allocs/op. The
// measured loop runs under the same pprof label as BenchmarkKVChurn's,
// phase=churn, so `make profile PROFILE_BENCH=BenchmarkSQLStatements` leaves
// the preload out of the SQL path's host profile.
func BenchmarkSQLStatements(b *testing.B) {
	db, err := fasp.Open(fasp.Options{})
	if err != nil {
		b.Fatal(err)
	}
	db.MustExec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)`)
	rng := rand.New(rand.NewSource(1))
	valBuf := make([]byte, 128)
	rng.Read(valBuf)
	drawVal := func() []byte { return valBuf[:32+rng.Intn(128-32+1)] }
	var stmt []byte
	appendRow := func(id uint64) {
		stmt = append(stmt, '(')
		stmt = strconv.AppendUint(stmt, id, 10)
		stmt = append(stmt, ", x'"...)
		stmt = hex.AppendEncode(stmt, drawVal())
		stmt = append(stmt, "')"...)
	}
	oldest, next := uint64(1), uint64(1) // live ids are [oldest, next)
	for next <= sqlStatementsPreload {
		stmt = append(stmt[:0], "INSERT INTO kv VALUES "...)
		for n := 0; n < 64 && next <= sqlStatementsPreload; n++ {
			if n > 0 {
				stmt = append(stmt, ", "...)
			}
			appendRow(next)
			next++
		}
		db.MustExec(string(stmt))
	}
	sim0 := db.SimulatedNS()
	b.ReportAllocs()
	b.ResetTimer()
	pprof.Do(context.Background(), pprof.Labels("phase", "churn"), func(context.Context) {
		for i := 0; i < b.N; i++ {
			u := rng.Intn(100)
			switch {
			case u < 35 || oldest == next:
				stmt = append(stmt[:0], "INSERT INTO kv VALUES "...)
				appendRow(next)
				next++
			case u < 70:
				stmt = append(stmt[:0], "DELETE FROM kv WHERE id = "...)
				stmt = strconv.AppendUint(stmt, oldest, 10)
				oldest++
			case u < 90:
				stmt = append(stmt[:0], "SELECT payload FROM kv WHERE id = "...)
				stmt = strconv.AppendUint(stmt, oldest+uint64(rng.Int63n(int64(next-oldest))), 10)
			default:
				stmt = append(stmt[:0], "UPDATE kv SET payload = x'"...)
				stmt = hex.AppendEncode(stmt, drawVal())
				stmt = append(stmt, "' WHERE id = "...)
				stmt = strconv.AppendUint(stmt, oldest+uint64(rng.Int63n(int64(next-oldest))), 10)
			}
			if _, err := db.Exec(string(stmt)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(db.SimulatedNS()-sim0)/float64(b.N)/1000, "sim-us/stmt")
}
