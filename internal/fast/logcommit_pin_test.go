package fast

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/phase"
	"fasp/internal/pmem"
)

// TestLogCommitPin pins what a plain-FAST logged commit persists: its log
// phase writes back the lines its header and frames span, each once, and
// fences once. It runs a small insert/update/delete churn on a machine where
// a line write-back costs 1 ns, a fence 2^20 ns and nothing else anything,
// so the log phase's simulated time is write-backs plus fences << 20.
//
// The three-fence commit this replaced failed here with two write-backs and
// two fences more per commit: it wrote the header line back again for the
// id and checksum and again for the length, each behind a fence of its own.
func TestLogCommitPin(t *testing.T) {
	const fence = 1 << 20
	sys := pmem.NewSystem(pmem.LatencyModel{PMWrite: 1, Fence: fence})
	cfg := Config{PageSize: 4096, MaxPages: 512, Variant: SlotHeaderLogging}
	st := Create(sys, cfg)
	if cfg.logBase()%pmem.CacheLineSize != 0 {
		t.Fatalf("log at %d is not line-aligned", cfg.logBase())
	}
	tree := btree.New(st)
	clock := sys.Clock()
	rng := rand.New(rand.NewSource(1))
	val := make([]byte, 256)
	rng.Read(val)
	key := func(id uint64) []byte {
		var k [8]byte
		binary.BigEndian.PutUint64(k[:], id*0x9E3779B97F4A7C15)
		return k[:]
	}
	// span walks the last commit's n frames in PM, where truncation leaves
	// them, and returns the bytes the log's header and those frames take.
	span := func(n int64) int64 {
		pos := int64(40) // magic, length, txid, checksum, reserved
		for ; n > 0; n-- {
			hdrLen := int64(binary.LittleEndian.Uint16(st.arena.MediumBytes(cfg.logBase()+pos+4, 2)))
			pos += (8 + hdrLen + 7) &^ 7
		}
		return pos
	}

	var live []uint64
	next := uint64(0)
	logged, lines, wrong := 0, int64(0), 0
	for i := 0; i < 3000; i++ {
		s0, log0 := st.Stats(), clock.Phase(phase.LogFlush)
		var err error
		switch r := rng.Intn(100); {
		case i < 400 || r < 35 || len(live) == 0:
			err = tree.Insert(key(next), val[:32+rng.Intn(225)])
			live = append(live, next)
			next++
		case r < 65:
			err = tree.Put(key(live[rng.Intn(len(live))]), val[:32+rng.Intn(225)])
		default:
			at := rng.Intn(len(live))
			err = tree.Delete(key(live[at]))
			live[at] = live[len(live)-1]
			live = live[:len(live)-1]
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		s := st.Stats()
		if s.LogCommits == s0.LogCommits {
			continue
		}
		logged++
		got := clock.Phase(phase.LogFlush) - log0
		want := (span(s.LoggedFrames-s0.LoggedFrames) + pmem.CacheLineSize - 1) / pmem.CacheLineSize
		if got != want+fence {
			if wrong < 5 {
				t.Errorf("op %d: the log phase wrote back %d lines and fenced %d times; want %d lines, one fence",
					i, got%fence, got/fence, want)
			}
			wrong++
		}
		lines += want
	}
	if logged == 0 || wrong > 0 {
		t.Fatalf("%d of %d logged commits persisted other than their lines once and one fence", wrong, logged)
	}
	t.Logf("%d logged commits, %.2f log lines each", logged, float64(lines)/float64(logged))
}
