package btree

import (
	"bytes"
	"errors"
	"maps"
	"slices"
	"testing"

	"fasp/internal/fast"
)

// walkCase decodes data into writes on a FAST+ tree of 512-byte pages and
// one Bounds, then checks every reader the walker serves against a sorted
// map. Each write is three bytes: op, then a key index in [0, 1024) big
// endian. The op's low two bits pick a put, a delete, or a put or delete of
// a run of up to 64 consecutive keys; its upper bits size the value (a run
// takes one from each key). The last three bytes are the bounds: flags
// (bit 0 lower bound, 1 upper bound, 2 LoX, 3 HiX, 4 Reverse, 5 and 6 put
// the lower or upper bound just past a key instead of on it), then the two
// key indexes, scaled by four.
func walkCase(t *testing.T, data []byte) {
	_, st, tr := newFastTree(t, fast.InPlaceCommit)
	model := map[string][]byte{}
	var bnd [3]byte
	if n := len(data); n >= 3 {
		copy(bnd[:], data[n-3:])
		data = data[:n-3]
	}
	for ; len(data) >= 3; data = data[3:] {
		op, key := data[0], (int(data[1])<<8|int(data[2]))%1024
		run := 1
		if op&2 != 0 {
			run = 1 + int(op>>2)%64
		}
		for i := key; i < key+run && i < 1024; i++ {
			kk := k(i)
			if op&1 == 0 {
				val := v(i, 1+int(op>>2)%80)
				if run > 1 {
					val = v(i, 10+i%40)
				}
				if err := tr.Put(kk, val); err != nil {
					t.Fatalf("put %q: %v", kk, err)
				}
				model[string(kk)] = val
				continue
			}
			err := tr.Delete(kk)
			if _, in := model[string(kk)]; in && err != nil || !in && !errors.Is(err, ErrKeyNotFound) {
				t.Fatalf("delete %q (present %v): %v", kk, in, err)
			}
			delete(model, string(kk))
		}
	}
	recs := make([]rec, 0, len(model))
	for _, kk := range slices.Sorted(maps.Keys(model)) {
		recs = append(recs, rec{[]byte(kk), model[kk]})
	}
	var b Bounds
	bound := func(i byte, past bool) []byte {
		kk := k(int(i) * 4)
		if past {
			kk = append(kk, 'x')
		}
		return kk
	}
	if bnd[0]&1 != 0 {
		b.Lo = bound(bnd[1], bnd[0]&32 != 0)
	}
	if bnd[0]&2 != 0 {
		b.Hi = bound(bnd[2], bnd[0]&64 != 0)
	}
	b.LoX, b.HiX, b.Reverse = bnd[0]&4 != 0, bnd[0]&8 != 0, bnd[0]&16 != 0

	vw := newView(t, st)
	sameRecs(t, collectView(t, vw, b), within(recs, b), "View.Scan")
	sameRecs(t, collectTx(t, tr, b.Lo, b.Hi), within(recs, Bounds{Lo: b.Lo, Hi: b.Hi}), "Tx.Scan")

	tx, err := tr.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if err := tx.Validate(); err != nil {
		t.Fatalf("tree invalid: %v", err)
	}
	probes := [][]byte{b.Lo, b.Hi, k(1023), []byte("a"), []byte("zz")}
	for _, r := range recs {
		probes = append(probes, r.k)
	}
	for _, kk := range probes {
		if kk == nil {
			continue
		}
		want, in := model[string(kk)]
		got, ok, err := vw.Get(kk, nil)
		if err != nil || ok != in || !bytes.Equal(got, want) {
			t.Fatalf("View.Get %q = %q %v %v, want %q %v", kk, got, ok, err, want, in)
		}
		got, ok, err = tx.Get(kk)
		if err != nil || ok != in || !bytes.Equal(got, want) {
			t.Fatalf("Tx.Get %q = %q %v %v, want %q %v", kk, got, ok, err, want, in)
		}
	}
	key, ok, err := tx.MaxKey()
	if err != nil || ok != (len(recs) > 0) || ok && !bytes.Equal(key, recs[len(recs)-1].k) {
		t.Fatalf("MaxKey = %q %v %v over %d records", key, ok, err, len(recs))
	}
	if n, err := tx.Count(); err != nil || n != len(recs) {
		t.Fatalf("Count = %d %v, want %d", n, err, len(recs))
	}
}

// FuzzWalk checks the one descent and the one range walk — View.Scan,
// Tx.Scan, View.Get, Tx.Get, MaxKey and Count — against a sorted map, over
// trees of one to several levels and arbitrary bounds.
func FuzzWalk(f *testing.F) {
	f.Add([]byte{0x28, 0, 7, 0x00, 0, 0})
	// 512 ascending keys, then the top 60 deleted: an empty rightmost leaf.
	var seed []byte
	for i := 0; i < 512; i += 64 {
		seed = append(seed, 0xfe, byte(i>>8), byte(i))
	}
	seed = append(seed, 0xef, 1, 0xc4, 0x1f, 10, 120)
	f.Add(seed)
	// Scattered runs and deletes under exclusive, between-key, reverse bounds.
	f.Add([]byte{0x7e, 3, 0, 0xfe, 0, 40, 0x42, 1, 200, 0x7e, 2, 10, 0x31, 1, 220,
		0x05, 0, 90, 0x0b, 3, 30, 0x7f, 10, 120})
	f.Add([]byte{0xfe, 1, 0, 0xfe, 2, 0, 0xfe, 0, 0, 0xfe, 3, 0, 0x3b, 1, 10, 0x53, 60, 200})
	f.Fuzz(walkCase)
}
