package shlog

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"fasp/internal/pmem"
)

func newLog(t *testing.T) (*pmem.System, *pmem.Arena, *Log) {
	t.Helper()
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	a := sys.NewArena("pm", 1<<16, pmem.PM)
	return sys, a, Format(a, 0, 1<<16)
}

func TestCommitAndReplayRoundTrip(t *testing.T) {
	_, _, l := newLog(t)
	l.Begin()
	h1 := []byte{1, 2, 3, 4, 5}
	h2 := bytes.Repeat([]byte{9}, 30)
	if err := l.AppendHeader(3, h1); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendHeader(1, h2); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Committed(); ok {
		t.Fatal("log committed before Commit")
	}
	l.Commit(42)
	txid, ok := l.Committed()
	if !ok || txid != 42 {
		t.Fatalf("committed = %d,%v", txid, ok)
	}
	frames, torn := l.Frames()
	if torn {
		t.Fatal("a whole commit reads as torn")
	}
	if len(frames) != 2 {
		t.Fatalf("frames = %d", len(frames))
	}
	if frames[0].PageNo != 3 || !bytes.Equal(frames[0].Header, h1) {
		t.Fatalf("frame 0 = %+v", frames[0])
	}
	if frames[1].PageNo != 1 || !bytes.Equal(frames[1].Header, h2) {
		t.Fatalf("frame 1 = %+v", frames[1])
	}
	l.Truncate()
	if _, ok := l.Committed(); ok {
		t.Fatal("log committed after Truncate")
	}
}

func TestUncommittedFramesVanishAtCrash(t *testing.T) {
	sys, a, l := newLog(t)
	l.Begin()
	if err := l.AppendHeader(7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// No commit: crash.
	sys.Crash(pmem.EvictAll) // even if everything is evicted…
	l2, err := Open(a, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l2.Committed(); ok {
		t.Fatal("uncommitted transaction visible after crash")
	}
}

func TestCommittedSurvivesCrashWithNoEvictions(t *testing.T) {
	sys, a, l := newLog(t)
	l.Begin()
	hdr := []byte("headerimage")
	if err := l.AppendHeader(5, hdr); err != nil {
		t.Fatal(err)
	}
	l.Commit(9)
	sys.Crash(pmem.EvictNone)
	l2, err := Open(a, 0, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	txid, ok := l2.Committed()
	if !ok || txid != 9 {
		t.Fatalf("committed after crash = %d,%v", txid, ok)
	}
	frames, torn := l2.Frames()
	if torn || len(frames) != 1 || !bytes.Equal(frames[0].Header, hdr) {
		t.Fatalf("frames after crash = %+v, torn %v", frames, torn)
	}
}

func TestLogFull(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(120, 120))
	a := sys.NewArena("pm", 256, pmem.PM)
	l := Format(a, 0, 256)
	l.Begin()
	if err := l.AppendHeader(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendHeader(2, make([]byte, 200)); !errors.Is(err, ErrLogFull) {
		t.Fatalf("err = %v, want ErrLogFull", err)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	sys := pmem.NewSystem(pmem.DefaultLatencies(120, 120))
	a := sys.NewArena("pm", 4096, pmem.PM)
	if _, err := Open(a, 0, 4096); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// A commit is whole only if every frame byte is the one Commit sealed: a
// frame line that reached PM stale or damaged makes the commit torn, not
// corrupt, and the log holds no transaction.
func TestChecksumDetectsTornFrames(t *testing.T) {
	_, a, l := newLog(t)
	l.Begin()
	if err := l.AppendHeader(1, bytes.Repeat([]byte{3}, 64)); err != nil {
		t.Fatal(err)
	}
	l.Commit(1)
	// Change one committed frame byte behind the log's back, as a frame
	// line left stale by a crash before the fence would.
	off := int64(logHeaderSize + frameHeader + 40)
	raw := a.Read(off, 1)
	a.Store(off, []byte{raw[0] ^ 0xFF})
	if frames, torn := l.Frames(); frames != nil || !torn {
		t.Fatalf("damaged frame: %d frames, torn %v; want none, torn", len(frames), torn)
	}
	if _, ok := l.Committed(); ok {
		t.Fatal("damaged frame reads as committed")
	}
	// A frame whose pad bytes are not zero is not one AppendHeader wrote.
	a.Store(off, raw)
	if _, torn := l.Frames(); torn {
		t.Fatal("restored frame reads as torn")
	}
	a.Store(logHeaderSize+6, []byte{1})
	if frames, torn := l.Frames(); frames != nil || !torn {
		t.Fatalf("non-zero frame pad: %d frames, torn %v; want none, torn", len(frames), torn)
	}
}

// The length is sealed into the checksum: any other committed length — past
// the log, inside a frame, or short of the last frame — is a torn commit.
func TestTruncatedLengthRejected(t *testing.T) {
	_, a, l := newLog(t)
	l.Begin()
	_ = l.AppendHeader(1, []byte{1})
	_ = l.AppendHeader(2, []byte{2})
	l.Commit(1)
	length := a.LoadU64(8)
	for _, bad := range []uint64{1 << 20, 1 << 63, length - 4, length - 8, length + 8} {
		a.StoreU64(8, bad)
		if frames, torn := l.Frames(); frames != nil || !torn {
			t.Fatalf("length %d: %d frames, torn %v; want none, torn", bad, len(frames), torn)
		}
	}
	a.StoreU64(8, length)
	if frames, torn := l.Frames(); torn || len(frames) != 2 {
		t.Fatalf("restored length: %d frames, torn %v", len(frames), torn)
	}
	l.Truncate()
	if frames, torn := l.Frames(); frames != nil || torn {
		t.Fatalf("truncated log: %d frames, torn %v; want none, not torn", len(frames), torn)
	}
}

// Exhaustive crash sweep: at every crash point of append+commit, under every
// lottery, the log is committed if and only if the whole commit — the header
// line's length, id and checksum and every frame byte — reached PM, and then
// every frame is exact. Otherwise it is torn exactly when a length reached
// PM, and Truncate empties it.
func TestCommitIsFailureAtomicAtEveryCrashPoint(t *testing.T) {
	headers := [][]byte{
		bytes.Repeat([]byte{0xA1}, 22),
		bytes.Repeat([]byte{0xB2}, 40),
		bytes.Repeat([]byte{0xC3}, 14),
		bytes.Repeat([]byte{0xD4}, 70),
	}
	run := func(l *Log) {
		l.Begin()
		for i, h := range headers {
			if err := l.AppendHeader(uint32(i+1), h); err != nil {
				panic(err)
			}
		}
		l.Commit(77)
	}
	// Count crash points, and take the medium image of the whole commit.
	sys, a, l := newLog(t)
	base := sys.CrashPoints()
	run(l)
	total := sys.CrashPoints() - base
	if total < 10 {
		t.Fatalf("suspiciously few crash points: %d", total)
	}
	span := int(logHeaderSize + l.PendingBytes())
	if span <= 2*pmem.CacheLineSize {
		t.Fatalf("the commit spans %d bytes; want frames on three lines at least", span)
	}
	whole := a.MediumBytes(0, span)
	reached := func(a *pmem.Arena) bool {
		img := a.MediumBytes(0, span)
		return bytes.Equal(img[8:32], whole[8:32]) && bytes.Equal(img[logHeaderSize:], whole[logHeaderSize:])
	}
	seen := map[string]int{}
	for _, opts := range []pmem.CrashOptions{pmem.EvictNone, pmem.EvictAll, {Seed: 3, EvictProb: 0.5}} {
		for k := int64(0); k < total; k++ {
			sys, a, l := newLog(t)
			sys.CrashAfter(k)
			crashed := sys.RunToCrash(func() { run(l) })
			sys.Crash(opts)
			l2, err := Open(a, 0, 1<<16)
			if err != nil {
				t.Fatalf("crash@%d opts=%+v: open: %v", k, opts, err)
			}
			txid, ok := l2.Committed()
			frames, torn := l2.Frames()
			if whole := reached(a); ok != whole || (frames != nil) != whole {
				t.Fatalf("crash@%d opts=%+v crashed=%v: committed %v with %d frames, but the whole commit reached PM: %v",
					k, opts, crashed, ok, len(frames), whole)
			}
			if !ok {
				if marked := a.LoadU64(8) != 0; torn != marked {
					t.Fatalf("crash@%d opts=%+v: torn %v with a length in PM: %v", k, opts, torn, marked)
				}
				if torn {
					seen["torn"]++
					l2.Truncate()
					if _, torn := l2.Frames(); torn {
						t.Fatalf("crash@%d opts=%+v: torn after Truncate", k, opts)
					}
				} else {
					seen["absent"]++
				}
				continue
			}
			seen["committed"]++
			if torn || txid != 77 || len(frames) != len(headers) {
				t.Fatalf("crash@%d: committed txid %d with %d frames (torn %v), want 77 and %d", k, txid, len(frames), torn, len(headers))
			}
			for i, f := range frames {
				if f.PageNo != uint32(i+1) || !bytes.Equal(f.Header, headers[i]) {
					t.Fatalf("crash@%d: frame %d corrupt", k, i)
				}
			}
		}
	}
	if seen["torn"] == 0 || seen["absent"] == 0 || seen["committed"] == 0 {
		t.Fatalf("the sweep misses an outcome: %v", seen)
	}
	t.Logf("%d crash points x 3 lotteries: %v", total, seen)
}

// The log is reusable across many transactions.
func TestSequentialTransactions(t *testing.T) {
	_, _, l := newLog(t)
	for txn := uint64(1); txn <= 20; txn++ {
		l.Begin()
		for p := 0; p < 3; p++ {
			hdr := []byte(fmt.Sprintf("txn%d-page%d", txn, p))
			if err := l.AppendHeader(uint32(p), hdr); err != nil {
				t.Fatal(err)
			}
		}
		l.Commit(txn)
		if frames, torn := l.Frames(); torn || len(frames) != 3 {
			t.Fatalf("txn %d: %d frames, torn %v", txn, len(frames), torn)
		}
		l.Truncate()
	}
}

// TestReplayIsIdempotent: recovery may crash mid-checkpoint and run again;
// applying the same committed frames twice must be harmless, and the log
// stays committed until explicitly truncated.
func TestReplayIsIdempotent(t *testing.T) {
	sys, a, l := newLog(t)
	hdr := bytes.Repeat([]byte{0x5A}, 26)
	l.Begin()
	if err := l.AppendHeader(4, hdr); err != nil {
		t.Fatal(err)
	}
	l.Commit(3)
	for round := 0; round < 3; round++ {
		if frames, torn := l.Frames(); torn || len(frames) != 1 || !bytes.Equal(frames[0].Header, hdr) {
			t.Fatalf("round %d: frames = %+v, torn %v", round, frames, torn)
		}
		// Simulate a crash between replay rounds.
		sys.Crash(pmem.EvictNone)
		l2, err := Open(a, 0, 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		l = l2
	}
	l.Truncate()
	if _, ok := l.Committed(); ok {
		t.Fatal("log still committed after truncate")
	}
}
