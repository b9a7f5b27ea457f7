package experiment

import (
	"reflect"
	"strings"
	"testing"

	"fasp/internal/phase"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// quick returns small-but-meaningful params for tests.
func quick() Params { return Params{N: 1500, PageSize: 4096, Seed: 7} }

func findFig6(rows []Fig6Row, lat int64, s scheme.Scheme) Fig6Row {
	for _, r := range rows {
		if r.Latency == lat && r.Scheme == s {
			return r
		}
	}
	return Fig6Row{}
}

// TestFig6Shape verifies the paper's headline shape: FAST/FAST+ beat NVWAL
// at every latency point, and total time rises with latency.
func TestFig6Shape(t *testing.T) {
	rows, err := RunFig6(quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(LatencyPoints)*3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, lat := range LatencyPoints {
		nv := findFig6(rows, lat, scheme.NVWAL)
		fa := findFig6(rows, lat, scheme.FAST)
		fp := findFig6(rows, lat, scheme.FASTPlus)
		if fp.TotalNS >= nv.TotalNS {
			t.Errorf("lat %d: FAST+ (%d ns) not faster than NVWAL (%d ns)", lat, fp.TotalNS, nv.TotalNS)
		}
		if fa.TotalNS >= nv.TotalNS {
			t.Errorf("lat %d: FAST (%d ns) not faster than NVWAL (%d ns)", lat, fa.TotalNS, nv.TotalNS)
		}
		if fp.TotalNS > fa.TotalNS {
			t.Errorf("lat %d: FAST+ (%d ns) slower than FAST (%d ns)", lat, fp.TotalNS, fa.TotalNS)
		}
		// Breakdown covers the total (phases are the whole insert path).
		sum := fp.SearchNS + fp.UpdateNS + fp.CommitNS
		if sum > fp.TotalNS || sum < fp.TotalNS*8/10 {
			t.Errorf("lat %d: FAST+ phases (%d) do not cover total (%d)", lat, sum, fp.TotalNS)
		}
	}
	// Totals increase with latency for every scheme.
	for _, s := range scheme.Paper {
		prev := int64(0)
		for _, lat := range LatencyPoints {
			r := findFig6(rows, lat, s)
			if r.TotalNS <= prev {
				t.Errorf("%v: total did not rise from lat %d", s, lat)
			}
			prev = r.TotalNS
		}
	}
	// The paper: FAST+ is 1.5x+ faster than NVWAL even at 1.2us.
	nv, fp := findFig6(rows, 1200, scheme.NVWAL), findFig6(rows, 1200, scheme.FASTPlus)
	if ratio := float64(nv.TotalNS) / float64(fp.TotalNS); ratio < 1.3 {
		t.Errorf("FAST+ speedup at 1200ns = %.2fx, want >= 1.3x", ratio)
	}
	var sb strings.Builder
	PrintFig6(rows, &sb)
	if !strings.Contains(sb.String(), "Figure 6") {
		t.Error("render missing title")
	}
	t.Log("\n" + sb.String())
}

// TestFig8Shape verifies the 1/6 commit-overhead headline: FAST+ commit is
// several times cheaper than NVWAL's, and NVWAL pays compute+heap costs the
// FAST schemes do not have.
func TestFig8Shape(t *testing.T) {
	rows, err := RunFig8(quick())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[[2]int64]Fig8Row{}
	for _, r := range rows {
		byKey[[2]int64{r.WriteLatency, int64(r.Scheme)}] = r
	}
	for _, wlat := range WriteLatencyPoints {
		nv := byKey[[2]int64{wlat, int64(scheme.NVWAL)}]
		fp := byKey[[2]int64{wlat, int64(scheme.FASTPlus)}]
		fa := byKey[[2]int64{wlat, int64(scheme.FAST)}]
		if nv.ComputeNS == 0 || nv.HeapNS == 0 || nv.MiscNS == 0 {
			t.Errorf("wlat %d: NVWAL breakdown missing components: %+v", wlat, nv)
		}
		if fp.ComputeNS != 0 || fa.ComputeNS != 0 {
			t.Errorf("wlat %d: FAST schemes should have no diff computation", wlat)
		}
		ratio := float64(nv.CommitNS) / float64(fp.CommitNS)
		if ratio < 3 {
			t.Errorf("wlat %d: NVWAL/FAST+ commit ratio %.2f, want >= 3 (paper: ~6)", wlat, ratio)
		}
		// FAST+ checkpointing is cheaper than FAST's (49% less in paper).
		if fp.CheckpointNS >= fa.CheckpointNS {
			t.Errorf("wlat %d: FAST+ checkpoint (%d) not below FAST (%d)", wlat, fp.CheckpointNS, fa.CheckpointNS)
		}
	}
	var sb strings.Builder
	PrintFig8(rows, &sb)
	t.Log("\n" + sb.String())
}

// TestFig9Shape verifies the record-size claims: the FAST/NVWAL gap widens
// with record size, and NVWAL WAL bytes exceed slot-header bytes by 4-8x.
func TestFig9Shape(t *testing.T) {
	rows, err := RunFig9(quick())
	if err != nil {
		t.Fatal(err)
	}
	get := func(size int, s scheme.Scheme) Fig9Row {
		for _, r := range rows {
			if r.RecordSize == size && r.Scheme == s {
				return r
			}
		}
		return Fig9Row{}
	}
	// The paper: "the performance gap widens between FAST and NVWAL as the
	// record size increases" — the absolute per-insert gap grows because
	// NVWAL duplicates ever-larger data into WAL frames.
	gapSmall := get(64, scheme.NVWAL).TotalNS - get(64, scheme.FASTPlus).TotalNS
	gapLarge := get(1024, scheme.NVWAL).TotalNS - get(1024, scheme.FASTPlus).TotalNS
	if gapLarge <= gapSmall {
		t.Errorf("gap did not widen with record size: %dns at 64B, %dns at 1024B", gapSmall, gapLarge)
	}
	// FAST+ stays ahead at every size.
	for _, size := range RecordSizes {
		if get(size, scheme.FASTPlus).TotalNS >= get(size, scheme.NVWAL).TotalNS {
			t.Errorf("size %d: FAST+ not faster than NVWAL", size)
		}
		if get(size, scheme.FASTPlus).Flushes >= get(size, scheme.NVWAL).Flushes {
			t.Errorf("size %d: FAST+ flushes not below NVWAL", size)
		}
	}
	// WAL frames are several times larger than slot headers.
	nv, fa := get(64, scheme.NVWAL), get(64, scheme.FAST)
	if fa.LogBytes == 0 || nv.WALBytes < 2*fa.LogBytes {
		t.Errorf("WAL bytes %d vs slot-header bytes %d: expected several-fold gap", nv.WALBytes, fa.LogBytes)
	}
	var sb strings.Builder
	PrintFig9(rows, &sb)
	t.Log("\n" + sb.String())
}

// TestFig10Shape verifies that FAST+ commits in place only for single-page
// transactions and falls back beyond.
func TestFig10Shape(t *testing.T) {
	p := quick()
	p.N = 1024
	rows, err := RunFig10(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scheme != scheme.FASTPlus {
			continue
		}
		if r.Batch == 1 && r.InPlace == 0 {
			t.Errorf("batch 1: no in-place commits")
		}
		if r.Batch >= 8 && r.InPlace > r.LogCommit {
			t.Errorf("batch %d: in-place (%d) should be rare vs logged (%d)", r.Batch, r.InPlace, r.LogCommit)
		}
	}
	var sb strings.Builder
	PrintFig10(rows, &sb)
	t.Log("\n" + sb.String())
}

// TestFig11Shape verifies the end-to-end 33% headline direction: FAST+
// improves full-query response time over NVWAL at every latency.
func TestFig11Shape(t *testing.T) {
	p := quick()
	p.N = 800
	rows, err := RunFig11(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Scheme == scheme.FASTPlus && r.ImprovementPct <= 0 {
			t.Errorf("lat %d: FAST+ improvement %.1f%%, want positive", r.Latency, r.ImprovementPct)
		}
	}
	var sb strings.Builder
	PrintFig11(rows, &sb)
	t.Log("\n" + sb.String())
}

func TestFig12Runs(t *testing.T) {
	p := quick()
	p.N = 600
	rows, err := RunFig12(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*2*3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.ThroughputKTPS <= 0 {
			t.Errorf("%+v: nonpositive throughput", r)
		}
	}
	var sb strings.Builder
	PrintFig12(rows, &sb)
	t.Log("\n" + sb.String())
}

// TestFig12Reproducible: Figure 12 is a function of its parameters — two
// runs agree to the last digit — and every scheme of an arm executes the
// same statements, UPDATE, DELETE and SELECT targets included. (The targets
// used to come from a Go map range: a different stream per scheme and run.)
func TestFig12Reproducible(t *testing.T) {
	p := quick()
	p.N = 600
	a, err := RunFig12(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFig12(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n%+v\n%+v", a, b)
	}
	p.fill()
	for _, mix := range Fig12Mixes {
		var streams [3][]string // what each scheme's run is handed
		for i := range streams {
			if err := fig12Stream(p, mix.Mix, func(stmt string) error {
				streams[i] = append(streams[i], stmt)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		if len(streams[0]) != p.N || !reflect.DeepEqual(streams[0], streams[1]) || !reflect.DeepEqual(streams[0], streams[2]) {
			t.Fatalf("%s: the schemes' statement lists differ", mix.Name)
		}
		kinds := map[string]int{}
		for _, stmt := range streams[0] {
			kinds[strings.Fields(stmt)[0]]++
		}
		if mix.Name == "mixed-crud" && (kinds["UPDATE"] == 0 || kinds["DELETE"] == 0 || kinds["SELECT"] == 0) {
			t.Fatalf("mixed-crud stream lacks a statement kind: %v", kinds)
		}
	}
}

func TestFig7Runs(t *testing.T) {
	p := quick()
	p.N = 1000
	rows, err := RunFig7(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		switch r.Scheme {
		case scheme.NVWAL:
			if r.FlushRecordNS != 0 {
				t.Errorf("NVWAL should not clflush records in page update: %+v", r)
			}
		case scheme.FAST, scheme.FASTPlus:
			if r.FlushRecordNS == 0 {
				t.Errorf("%v missing clflush(record): %+v", r.Scheme, r)
			}
		}
		if r.Scheme == scheme.FAST && r.SlotHeaderNS == 0 {
			t.Errorf("FAST missing update-slot-header cost")
		}
	}
	var sb strings.Builder
	PrintFig7(rows, &sb)
	t.Log("\n" + sb.String())
}

func TestAblations(t *testing.T) {
	p := quick()
	p.N = 800
	abl, err := RunAblationSchemes(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl) != len(scheme.All) {
		t.Fatalf("%d rows", len(abl))
	}
	// Full-page logging schemes write far more log bytes than FAST.
	var fastB, walB, jB int64
	for _, r := range abl {
		switch r.Scheme {
		case scheme.FASTPlus:
			fastB = r.BytesLog
		case scheme.WAL:
			walB = r.BytesLog
		case scheme.Journal:
			jB = r.BytesLog
		}
	}
	if walB < 10*fastB || jB < 10*fastB {
		t.Errorf("page-granular logging (%d, %d B) should dwarf FAST+ (%d B)", walB, jB, fastB)
	}

	ps, err := RunAblationPageSize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 9 {
		t.Fatalf("%d page-size rows", len(ps))
	}

	ha, err := RunAblationHTMAborts(p)
	if err != nil {
		t.Fatal(err)
	}
	if ha[0].Spurious != 0 || ha[len(ha)-1].Spurious == 0 {
		t.Errorf("abort injection not reflected: %+v", ha)
	}
	if ha[len(ha)-1].TotalNS < ha[0].TotalNS {
		t.Errorf("high abort rate should not be faster")
	}
	var sb strings.Builder
	PrintAblationSchemes(abl, &sb)
	PrintAblationPageSize(ps, &sb)
	PrintAblationHTMAborts(ha, &sb)
	t.Log("\n" + sb.String())
}

// Sanity: the measurement helper reports phases consistent with the clock.
func TestRunInsertsAccounting(t *testing.T) {
	e := NewEnv(scheme.FASTPlus, pmem.DefaultLatencies(300, 300), quick())
	m, err := RunInserts(e, 500, 64, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 500 || m.TotalNS <= 0 {
		t.Fatalf("measurement %+v", m)
	}
	if m.Phases[phase.Search] == 0 || m.Phases[phase.Commit] == 0 {
		t.Fatal("phases missing")
	}
	if m.PM.FlushCalls == 0 {
		t.Fatal("no flushes counted")
	}
	if m.InPlaceCommits == 0 {
		t.Fatal("FAST+ did not commit in place")
	}
}

// TestRecoveryShape: FAST(+) recovery is O(1) in transactions since the
// last checkpoint; NVWAL's grows with the uncheckpointed WAL.
func TestRecoveryShape(t *testing.T) {
	p := quick()
	rows, err := RunRecovery(p)
	if err != nil {
		t.Fatal(err)
	}
	get := func(txns int, s scheme.Scheme) int64 {
		for _, r := range rows {
			if r.Txns == txns && r.Scheme == s {
				return r.NS
			}
		}
		return -1
	}
	small, large := RecoveryPoints[0], RecoveryPoints[len(RecoveryPoints)-1]
	// NVWAL recovery grows at least ~10x across a 200x txn range.
	if g := float64(get(large, scheme.NVWAL)) / float64(get(small, scheme.NVWAL)); g < 10 {
		t.Errorf("NVWAL recovery grew only %.1fx over the sweep", g)
	}
	// FAST+ recovery stays within a small constant factor.
	if g := float64(get(large, scheme.FASTPlus)) / float64(get(small, scheme.FASTPlus)+1); g > 3 {
		t.Errorf("FAST+ recovery not constant: %.1fx growth", g)
	}
	// At the large point NVWAL recovery is much slower than FAST+.
	if get(large, scheme.NVWAL) < 10*get(large, scheme.FASTPlus) {
		t.Errorf("NVWAL %dns vs FAST+ %dns at %d txns", get(large, scheme.NVWAL), get(large, scheme.FASTPlus), large)
	}
	var sb strings.Builder
	PrintRecovery(rows, &sb)
	t.Log("\n" + sb.String())
}

// TestWriteAmplificationShape: FAST+ writes the least PM bytes per insert;
// page-granular schemes amplify writes by orders of magnitude.
func TestWriteAmplificationShape(t *testing.T) {
	p := quick()
	rows, err := RunWriteAmplification(p)
	if err != nil {
		t.Fatal(err)
	}
	get := func(s scheme.Scheme) AmpRow {
		for _, r := range rows {
			if r.Scheme == s {
				return r
			}
		}
		return AmpRow{}
	}
	if !(get(scheme.FASTPlus).Amplification < get(scheme.FAST).Amplification &&
		get(scheme.FAST).Amplification < get(scheme.NVWAL).Amplification &&
		get(scheme.NVWAL).Amplification < get(scheme.WAL).Amplification) {
		t.Errorf("amplification ordering broken: %+v", rows)
	}
	if get(scheme.WAL).Amplification < 10*get(scheme.FASTPlus).Amplification {
		t.Errorf("page-granular amplification should dwarf FAST+: %+v", rows)
	}
	var sb strings.Builder
	PrintWriteAmplification(rows, &sb)
	t.Log("\n" + sb.String())
}
