package main

import (
	"encoding/hex"
	"fmt"
	"strconv"

	"fasp"
	"fasp/internal/engine"
)

// sqlSizing sizes the sql-insert workload. The full preload is about 6 MiB
// of table pages, three times the emulated cache: the paper's mobile shape
// is a small database, but not one that fits the cache outright.
type sqlSizing struct {
	preload        int   // rows loaded before the measured phase
	simOps         int64 // statements in the fixed simulated-clock window
	valMin, valMax int   // payload length range, uniform
	setups         int
}

var sqlFull = sqlSizing{preload: 50_000, simOps: 60_000, valMin: 32, valMax: 128, setups: 3}

// sqlTarget is an entry point statements can be driven into: the fasp.DB
// facade and a bare engine.DB both fit.
type sqlTarget interface {
	Exec(src string) ([]engine.Result, error)
}

const (
	sqlInsert = iota
	sqlDelete
	sqlSelect
	sqlUpdate
)

// sqlStream is the sql-insert statement stream over the table
// kv(id INTEGER PRIMARY KEY, payload BLOB) — a mobile app's log table that
// is appended to and trimmed: 35 % single-row INSERT of the next id, 35 %
// DELETE of the oldest row, 20 % SELECT by a uniform live id, 10 % UPDATE
// of a uniform live id with a payload of a freshly drawn length. The table
// keeps its preloaded size, so the run can last any length of time; the
// live ids are always the range [oldest, next), so the model is two arrays
// indexed by id. It implements stepper.
type sqlStream struct {
	r      *rng
	sz     sqlSizing
	target sqlTarget
	ver    []uint32 // id → version (index 0 unused: ids start at 1)
	vlen   []uint16
	oldest uint64 // smallest live id
	bytes  int64  // live user bytes: Σ (8-byte id + payload)

	kind   int
	id     uint64
	newVer uint32
	val    []byte
	valBuf []byte
	stmt   []byte
	wrong  int64 // SELECTs that returned something other than the model's row
}

func newSQLStream(seed int64, sz sqlSizing) *sqlStream {
	return &sqlStream{r: newRNG(seed, 2), sz: sz, ver: []uint32{0}, vlen: []uint16{0}, oldest: 1, valBuf: make([]byte, sz.valMax)}
}

func (s *sqlStream) drawVal(id uint64, ver uint32) []byte {
	v := s.valBuf[:s.sz.valMin+s.r.intn(s.sz.valMax-s.sz.valMin+1)]
	fillValue(v, id, ver)
	return v
}

func (s *sqlStream) rows() int { return len(s.ver) - int(s.oldest) }

func (s *sqlStream) drawID() uint64 { return s.oldest + uint64(s.r.intn(s.rows())) }

func (s *sqlStream) prepare() {
	u := s.r.intn(100)
	s.stmt = s.stmt[:0]
	switch {
	case u < 35 || s.rows() == 0:
		s.kind, s.id, s.newVer = sqlInsert, uint64(len(s.ver)), 1
		s.val = s.drawVal(s.id, 1)
		s.stmt = append(s.stmt, "INSERT INTO kv VALUES ("...)
		s.stmt = strconv.AppendUint(s.stmt, s.id, 10)
		s.stmt = append(s.stmt, ", x'"...)
		s.stmt = hex.AppendEncode(s.stmt, s.val)
		s.stmt = append(s.stmt, "')"...)
	case u < 70:
		s.kind, s.id, s.val = sqlDelete, s.oldest, nil
		s.stmt = append(s.stmt, "DELETE FROM kv WHERE id = "...)
		s.stmt = strconv.AppendUint(s.stmt, s.id, 10)
	case u < 90:
		s.kind, s.id, s.val = sqlSelect, s.drawID(), nil
		s.stmt = append(s.stmt, "SELECT payload FROM kv WHERE id = "...)
		s.stmt = strconv.AppendUint(s.stmt, s.id, 10)
	default:
		s.kind, s.id = sqlUpdate, s.drawID()
		s.newVer = s.ver[s.id] + 1
		s.val = s.drawVal(s.id, s.newVer)
		s.stmt = append(s.stmt, "UPDATE kv SET payload = x'"...)
		s.stmt = hex.AppendEncode(s.stmt, s.val)
		s.stmt = append(s.stmt, "' WHERE id = "...)
		s.stmt = strconv.AppendUint(s.stmt, s.id, 10)
	}
}

func (s *sqlStream) exec() error {
	res, err := s.target.Exec(string(s.stmt))
	if err != nil {
		return err
	}
	if s.kind == sqlSelect && !s.rowMatches(res) {
		s.wrong++
	}
	return nil
}

// rowMatches checks a SELECT's result against the model's row.
func (s *sqlStream) rowMatches(res []engine.Result) bool {
	if len(res) != 1 || len(res[0].Rows) != 1 || len(res[0].Rows[0]) != 1 {
		return false
	}
	got := res[0].Rows[0][0].AsBlob()
	ver, ok := checkValue(got, s.id, s.valBuf[:cap(s.valBuf)])
	return ok && ver == s.ver[s.id] && len(got) == int(s.vlen[s.id])
}

func (s *sqlStream) ack() {
	switch s.kind {
	case sqlInsert:
		s.ver = append(s.ver, 1)
		s.vlen = append(s.vlen, uint16(len(s.val)))
		s.bytes += 8 + int64(len(s.val))
	case sqlDelete:
		s.bytes -= 8 + int64(s.vlen[s.id])
		s.oldest++
	case sqlUpdate:
		s.bytes += int64(len(s.val)) - int64(s.vlen[s.id])
		s.ver[s.id], s.vlen[s.id] = s.newVer, uint16(len(s.val))
	}
}

func (s *sqlStream) isWrite() bool  { return s.kind != sqlSelect }
func (s *sqlStream) userBytes() int { return 8 + len(s.val) }

// preload creates the table and inserts sz.preload rows, 64 to a
// multi-row INSERT (one transaction each), calling pause (if any) every 32
// statements.
func (s *sqlStream) preload(pause func()) error {
	if _, err := s.target.Exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)"); err != nil {
		return fmt.Errorf("preload: %w", err)
	}
	for stmts := 1; s.rows() < s.sz.preload; stmts++ {
		if pause != nil && stmts%32 == 0 {
			pause()
		}
		stmt := []byte("INSERT INTO kv VALUES ")
		for n := 0; n < 64 && s.rows() < s.sz.preload; n++ {
			id := uint64(len(s.ver))
			val := s.drawVal(id, 1)
			if n > 0 {
				stmt = append(stmt, ", "...)
			}
			stmt = append(stmt, '(')
			stmt = strconv.AppendUint(stmt, id, 10)
			stmt = append(stmt, ", x'"...)
			stmt = hex.AppendEncode(stmt, val)
			stmt = append(stmt, "')"...)
			s.ver = append(s.ver, 1)
			s.vlen = append(s.vlen, uint16(len(val)))
			s.bytes += 8 + int64(len(val))
		}
		if _, err := s.target.Exec(string(stmt)); err != nil {
			return fmt.Errorf("preload: %w", err)
		}
	}
	return nil
}

// check compares the whole table with the model: row count, then every
// row's id and payload from one full scan. It returns the rows that differ.
func (s *sqlStream) check() (bad int64, err error) {
	res, err := s.target.Exec("SELECT COUNT(*) FROM kv")
	if err != nil {
		return 0, fmt.Errorf("count: %w", err)
	}
	if len(res) != 1 || len(res[0].Rows) != 1 || res[0].Rows[0][0].AsInt() != int64(s.rows()) {
		bad++
	}
	res, err = s.target.Exec("SELECT id, payload FROM kv")
	if err != nil {
		return bad, fmt.Errorf("scan: %w", err)
	}
	rows := res[0].Rows
	seen := 0
	scratch := make([]byte, s.sz.valMax)
	for _, row := range rows {
		id := uint64(row[0].AsInt())
		got := row[1].AsBlob()
		if id < s.oldest || id >= uint64(len(s.ver)) {
			bad++
			continue
		}
		seen++
		if ver, ok := checkValue(got, id, scratch); !ok || ver != s.ver[id] || len(got) != int(s.vlen[id]) {
			bad++
		}
	}
	return bad + int64(s.rows()-seen), nil
}

// sqlSetup is a preloaded database with the stream bound to it.
type sqlSetup struct {
	db     *fasp.DB
	stream *sqlStream
}

func setupSQL(seed int64, sz sqlSizing, scheme string, pause func()) (sqlSetup, error) {
	db, err := fasp.Open(fasp.Options{Scheme: scheme})
	if err != nil {
		return sqlSetup{}, err
	}
	s := newSQLStream(seed, sz)
	s.target = db
	if err := s.preload(pause); err != nil {
		return sqlSetup{}, err
	}
	return sqlSetup{db, s}, nil
}

func snapDB(db *fasp.DB) simSnap {
	st := db.RawStore()
	return snapStore(st, arenaOf(st))
}

// sqlArm is the measured FAST+ pass over the statement stream.
type sqlArm struct {
	w            window
	run          *embeddedRun
	setup        setupTimes
	spaceAmp     float64
	bad          int64
	recoverSimNS int64
}

// runSQLArm preloads a FAST+ database, drives the stream through it for
// the measured phase, then runs the oracle: full comparison, crash with
// half the dirty lines evicted, recovery, full comparison again.
func runSQLArm(a args, sz sqlSizing) (*sqlArm, error) {
	set, setup, err := timeSetups(sz.setups,
		func(pause func()) (sqlSetup, error) { return setupSQL(a.seed, sz, fasp.SchemeFASTPlus, pause) },
		func(sqlSetup) {})
	if err != nil {
		return nil, err
	}
	arm := &sqlArm{setup: setup, w: newWindow(a.seconds)}
	arm.run = runEmbedded(set.stream, arm.w, sz.simOps,
		func() simSnap { return snapDB(set.db) },
		func() {
			arm.spaceAmp = float64(pageBytes(set.db.RawStore())) / float64(set.stream.bytes)
		})
	if arm.bad, err = set.stream.check(); err != nil {
		return nil, err
	}
	sim0 := set.db.SimulatedNS()
	set.db.Crash(fasp.CrashOptions{Seed: a.seed, EvictProb: 0.5})
	if err := set.db.Reopen(); err != nil {
		return nil, err
	}
	arm.recoverSimNS = set.db.SimulatedNS() - sim0
	after, err := set.stream.check()
	if err != nil {
		return nil, err
	}
	arm.bad += after + set.stream.wrong
	return arm, nil
}

func runSQLInsert(a args, sz sqlSizing) (*result, error) {
	r := newResult("sql-insert", a.seed, a.seconds, a.trace)
	rt0 := readRuntime()
	arm, err := runSQLArm(a, sz)
	if err != nil {
		return nil, err
	}
	rt1 := readRuntime()
	arm.setup.emit(r)
	wallMetrics(r, []*sliceRec{&arm.run.rec}, &arm.run.cpu, arm.w, &arm.run.rul)
	arm.run.sim.endToEnd(r)
	r.e2e("space_amp", summary{Median: arm.spaceAmp})
	r.Attempted, r.Failed = arm.run.attempted, arm.run.failed+arm.bad
	r.e2e("peak_rss_mb", summary{Median: peakRSSMiB()})

	if a.trace {
		arm.run.sim.layers(r)
		rt1.layers(r, rt0, arm.run.attempted)
		r.layer("pmem.sim_ns_per_host_ns", ratio(arm.run.sim.simNS(), arm.run.simWallNS))
		r.layer("fasp.recover_sim_us", float64(arm.recoverSimNS)/1e3)
		if err := traceSQLInsert(r, a, sz, arm); err != nil {
			return nil, err
		}
	}
	r.Correct = r.Failed == 0
	return r, nil
}
