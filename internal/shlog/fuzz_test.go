package shlog

import (
	"bytes"
	"hash/fnv"
	"testing"

	"fasp/internal/pmem"
)

// fuzzRegion is the log region FuzzLogImage lays its images over.
const fuzzRegion = 1024

// FuzzLogImage treats arbitrary bytes as the log region of a log that Open
// accepts (the magic is written over the first word). Committed and Frames
// must not panic and must agree, and a committed image must be one Commit
// writes: its frames, appended to a fresh log and committed under the stored
// id, reproduce the stored length, id and checksum and the committed frame
// bytes.
func FuzzLogImage(f *testing.F) {
	f.Fuzz(func(t *testing.T, img []byte) {
		sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
		a := sys.NewArena("pm", fuzzRegion, pmem.PM)
		a.Store(0, img[:min(len(img), fuzzRegion)])
		a.StoreU64(0, magic)
		l, err := Open(a, 0, fuzzRegion)
		if err != nil {
			t.Fatal(err)
		}
		txid, ok := l.Committed()
		frames, torn := l.Frames()
		if ok != (frames != nil) || (ok && torn) {
			t.Fatalf("Committed says %v, Frames returns %d frames, torn %v", ok, len(frames), torn)
		}
		if torn != (!ok && a.LoadU64(8) != 0) {
			t.Fatalf("torn %v with length %d and no commit", torn, a.LoadU64(8))
		}
		if !ok {
			return
		}
		fresh := Format(sys.NewArena("fresh", fuzzRegion, pmem.PM), 0, fuzzRegion)
		fresh.Begin()
		for _, fr := range frames {
			if err := fresh.AppendHeader(fr.PageNo, fr.Header); err != nil {
				t.Fatalf("re-appending frame of page %d: %v", fr.PageNo, err)
			}
		}
		fresh.Commit(txid)
		span := logHeaderSize + int(fresh.PendingBytes())
		got, want := fresh.a.Read(0, span), a.Read(0, span)
		if !bytes.Equal(got[8:32], want[8:32]) || !bytes.Equal(got[logHeaderSize:], want[logHeaderSize:]) {
			t.Fatalf("re-committing %d frames under txid %d does not reproduce the image:\n got %x\nwant %x", len(frames), txid, got, want)
		}
	})
}

// TestFoldIsFNV1a pins the log's checksum fold to hash/fnv's FNV-1a.
func TestFoldIsFNV1a(t *testing.T) {
	b := []byte("slot-header log")
	h := fnv.New64a()
	h.Write(b)
	if got, want := fnvFold(fnvOffset64, b), h.Sum64(); got != want {
		t.Fatalf("fnvFold = %x, hash/fnv = %x", got, want)
	}
}
