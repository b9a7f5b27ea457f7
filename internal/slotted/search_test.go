package slotted

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// leafOf builds a 4 KiB leaf holding the longest prefix of the sorted,
// distinct keys that fits, each with an empty value, and returns it with the
// keys it holds.
func leafOf(keys [][]byte) (*Page, [][]byte) {
	p, _ := newLeaf(4096)
	for i, k := range keys {
		if err := p.InsertAt(i, k, nil); err != nil {
			return p, keys[:i]
		}
	}
	return p, keys
}

// probed runs SearchRange for target over a copy of r and checks its answer
// against a linear scan of keys: the first index whose key is ≥ target, and
// whether it equals target. When r holds target, the narrowed range must
// still hold it. It returns the probes the search made.
func probed(t testing.TB, p *Page, keys [][]byte, r *KeyRange, target []byte) int {
	t.Helper()
	var q KeyRange
	q.Set(r)
	before := p.Counts().LeafProbes
	i, found := p.SearchRange(target, &q)
	probes := p.Counts().LeafProbes - before
	want := len(keys)
	for j, k := range keys {
		if bytes.Compare(k, target) >= 0 {
			want = j
			break
		}
	}
	wantFound := want < len(keys) && bytes.Equal(keys[want], target)
	if i != want || found != wantFound {
		t.Fatalf("search for %x over %d keys = (%d, %v), want (%d, %v)", target, len(keys), i, found, want, wantFound)
	}
	if limit := 2 * bits.Len(uint(len(keys))); probes > limit {
		t.Fatalf("search for %x over %d keys probed %d cells, more than 2⌈log2(n+1)⌉ = %d", target, len(keys), probes, limit)
	}
	if holds(r, target) && !holds(&q, target) {
		t.Fatalf("search for %x narrowed its range to (%x, %x], which does not hold it", target, q.lo, q.hi)
	}
	return probes
}

// holds reports whether key lies in r.
func holds(r *KeyRange, key []byte) bool {
	return (!r.hasLo || bytes.Compare(r.lo, key) < 0) && (!r.hasHi || bytes.Compare(key, r.hi) <= 0)
}

// FuzzPageSearch checks the bounded search against a linear scan: the page
// holds the keys cut from data (one length byte, then up to 12 key bytes,
// repeated), the range has a lower bound, an upper bound, both or neither,
// drawn from keys left out of the page on either side, and the target is
// one of the page's keys (pick even) or target itself (pick odd).
func FuzzPageSearch(f *testing.F) {
	f.Add([]byte("\x03abc\x03abd\x05abzzz\x01b\x02ca"), []byte("abd"), byte(3), byte(0))
	f.Add([]byte("\x07prefix1\x07prefix2\x07prefix9\x08prefix10"), []byte("prefix5"), byte(3), byte(1))
	f.Add([]byte("\x00\x01\x02\x03\x04"), []byte{}, byte(0), byte(1))
	f.Fuzz(func(t *testing.T, data, target []byte, bounds, pick byte) {
		var keys [][]byte
		for len(data) > 0 {
			n := min(1+int(data[0])%12, len(data)-1)
			if n <= 0 {
				break
			}
			keys = append(keys, data[1:1+n])
			data = data[1+n:]
		}
		slices.SortFunc(keys, bytes.Compare)
		keys = slices.CompactFunc(keys, bytes.Equal)
		// Keys left out below and above the page become its bounds.
		var r KeyRange
		if bounds&1 != 0 && len(keys) > 0 {
			r.setLo(keys[0])
			keys = keys[1:]
		}
		if bounds&2 != 0 && len(keys) > 0 {
			r.setHi(keys[len(keys)-1])
			if bounds&4 != 0 {
				keys = keys[:len(keys)-1] // the bound is above the page's last key
			}
		}
		p, keys := leafOf(keys)
		if pick%2 == 0 && len(keys) > 0 {
			target = keys[int(pick/2)%len(keys)]
		}
		probed(t, p, keys, &r, target)
	})
}

// TestSearchAdversarialKeys runs the bounded search for every key of a full
// leaf, and for a key between each two, over key sets built to mislead an
// interpolation: keys that share a 7-byte prefix, keys spaced exponentially,
// keys of mixed lengths, sequential keys and uniform ones. The range is
// what a descent hands a leaf: the key below its first (exclusive) and its
// last. No search may probe more than 2⌈log2(n+1)⌉ cells, and on sequential
// and uniform keys the searches together probe no more cells than bisection
// (the same search with an open range) does.
func TestSearchAdversarialKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	be := func(v uint64) []byte { return binary.BigEndian.AppendUint64(nil, v) }
	sets := []struct {
		name    string
		cheaper bool // must probe no more than bisection
		keys    func() [][]byte
	}{
		{"shared 7-byte prefix", false, func() (ks [][]byte) {
			for i := 0; i < 400; i++ {
				ks = append(ks, append([]byte("prefix:"), be(rng.Uint64())[:4]...))
			}
			return ks
		}},
		{"exponential spacing", false, func() (ks [][]byte) {
			for v := uint64(1); v < 1<<62; v = v*3/2 + 1 {
				ks = append(ks, be(v))
			}
			return ks
		}},
		{"mixed lengths", false, func() (ks [][]byte) {
			for i := 0; i < 400; i++ {
				k := make([]byte, 1+rng.Intn(24))
				rng.Read(k)
				ks = append(ks, k)
			}
			return ks
		}},
		{"sequential", true, func() (ks [][]byte) {
			for i := 0; i < 400; i++ {
				ks = append(ks, be(uint64(1000+i)))
			}
			return ks
		}},
		{"uniform", true, func() (ks [][]byte) {
			for i := 0; i < 400; i++ {
				ks = append(ks, be(rng.Uint64()))
			}
			return ks
		}},
	}
	for _, set := range sets {
		t.Run(set.name, func(t *testing.T) {
			keys := set.keys()
			slices.SortFunc(keys, bytes.Compare)
			keys = slices.CompactFunc(keys, bytes.Equal)
			var bounded KeyRange
			bounded.setLo(keys[0])
			p, keys := leafOf(keys[1:])
			bounded.setHi(keys[len(keys)-1])
			var open KeyRange
			var targets [][]byte
			for i, k := range keys {
				targets = append(targets, k)
				if i+1 < len(keys) {
					if mid := append(slices.Clone(k), 0); bytes.Compare(mid, keys[i+1]) < 0 {
						targets = append(targets, mid) // absent, between k and the next key
					}
				}
			}
			interp, bisect := 0, 0
			for _, k := range targets {
				interp += probed(t, p, keys, &bounded, k)
				bisect += probed(t, p, keys, &open, k)
			}
			t.Logf("%d keys, %d searches: %.2f probes per search interpolating, %.2f bisecting",
				len(keys), len(targets), float64(interp)/float64(len(targets)), float64(bisect)/float64(len(targets)))
			if set.cheaper && interp > bisect {
				t.Errorf("interpolating probed %d cells, bisecting %d", interp, bisect)
			}
		})
	}
}
