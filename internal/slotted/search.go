package slotted

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

// interpolateWords is the computation one interpolated probe is charged, in
// CPU words (Mem.Compute): the bounds' common prefix, three 8-byte loads, a
// 64×64-bit multiply and a 128/64-bit divide.
const interpolateWords = 4

// KeyRange is a key interval (lo, hi] known to hold every key of a page; a
// side of which nothing is known is open. A search reads it to place its
// probes and narrows it to the nearest keys it probed on either side of its
// target. Those still bound the child an interior search picks, whose keys
// lie between the separators around it, so a descent hands each page the
// range its parent's search ended with, for free. A KeyRange owns its key
// bytes and reuses their buffers; the zero value is open on both sides.
type KeyRange struct {
	lo, hi       []byte
	hasLo, hasHi bool
}

// Open forgets both sides of r.
func (r *KeyRange) Open() { r.hasLo, r.hasHi = false, false }

// Set makes r a copy of s.
func (r *KeyRange) Set(s *KeyRange) {
	r.lo, r.hasLo = append(r.lo[:0], s.lo...), s.hasLo
	r.hi, r.hasHi = append(r.hi[:0], s.hi...), s.hasHi
}

// setLo closes the lower side of r at k, exclusive.
func (r *KeyRange) setLo(k []byte) { r.lo, r.hasLo = append(r.lo[:0], k...), true }

// setHi closes the upper side of r at k, inclusive.
func (r *KeyRange) setHi(k []byte) { r.hi, r.hasHi = append(r.hi[:0], k...), true }

// Search returns the index of the first cell with key ≥ key and whether
// that cell's key equals key, knowing nothing of the page's key range.
func (p *Page) Search(key []byte) (int, bool) {
	p.rng.Open()
	return p.SearchRange(key, &p.rng)
}

// SearchRange is Search on a page whose keys all lie in r, which it narrows
// (see KeyRange). While both sides of the range are known, each probe is
// placed where the key falls between them, by interpolating the 8 bytes
// after their common prefix as integers; the arithmetic is integer-only, so
// simulated time is the same on every machine, and is charged to the page's
// memory as interpolateWords of computation. A side still open, and every
// probe after the first ⌈log2(n+1)⌉, bisects, so no search of n cells probes
// more than 2⌈log2(n+1)⌉ of them. The bounds only place probes: a range that
// does not hold the page's keys costs probes, never a wrong answer.
func (p *Page) SearchRange(key []byte, r *KeyRange) (int, bool) {
	l, h := 0, len(p.hdr.Offsets) // cells below l are < key, cells from h on ≥ key
	guesses := bits.Len(uint(h))
	probes := 0
	for l < h {
		m := int(uint(l+h) >> 1)
		if probes < guesses && r.hasLo && r.hasHi {
			m = l + interpolate(r.lo, r.hi, key, h-l)
			p.mem.Compute(interpolateWords)
		}
		k := p.keyTransient(m)
		probes++
		switch c := bytes.Compare(k, key); {
		case c < 0:
			l = m + 1
			r.setLo(k)
		case c > 0:
			h = m
			r.setHi(k)
		default:
			r.setHi(k)
			p.countSearch(probes)
			return m, true
		}
	}
	p.countSearch(probes)
	return l, false
}

// countSearch adds one search of the given probes to the handle's counts.
func (p *Page) countSearch(probes int) {
	if p.hdr.Type == TypeLeaf {
		p.counts.LeafSearches++
		p.counts.LeafProbes += probes
	} else {
		p.counts.InteriorSearches++
		p.counts.InteriorProbes += probes
	}
}

// interpolate returns which of n cells lying above lo, and up to hi, to
// probe for key: the one whose rank the key's place between the bounds
// predicts. The lower bound has rank 0 and the upper rank n, because an
// upper bound is often a cell of the page: a separator is the largest key of
// the child it names. Keys are compared as big-endian integers of the 8
// bytes after the bounds' common prefix, zero-padded; bounds that do not
// order, or tie in those bytes, give the middle cell.
func interpolate(lo, hi, key []byte, n int) int {
	cp := 0
	for cp < len(lo) && cp < len(hi) && lo[cp] == hi[cp] {
		cp++
	}
	a, b, x := word(lo, cp), word(hi, cp), word(key, cp)
	if b <= a {
		return n / 2
	}
	x = min(max(x, a), b)
	// The rank is (x−a)/(b−a)·n, rounded to the nearest; cell i has rank i+1.
	d := b - a
	ph, pl := bits.Mul64(x-a, uint64(n))
	q, rem := bits.Div64(ph, pl, d)
	if rem >= d-rem {
		q++
	}
	return min(max(int(q), 1), n) - 1
}

// word returns the 8 bytes of k from off as a big-endian integer, padded
// with zeros past k's end.
func word(k []byte, off int) uint64 {
	if off+8 <= len(k) {
		return binary.BigEndian.Uint64(k[off:])
	}
	var w [8]byte
	if off < len(k) {
		copy(w[:], k[off:])
	}
	return binary.BigEndian.Uint64(w[:])
}
