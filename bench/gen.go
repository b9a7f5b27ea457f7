package main

import (
	"bytes"
	"encoding/binary"
	"math"
)

// rng is the benchmark's own seeded generator (splitmix64): every input —
// keys, value sizes, op mix, inter-arrival gaps — derives from --seed
// through it, so the same seed replays the same op stream at every entry
// point and no library change can move the inputs.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 ^ mix64(stream+0x632BE59BD9B4E019)}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix64(r.s)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int { return int((r.next() >> 11) % uint64(n)) }

// float returns a uniform float in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// expGap returns an exponential inter-arrival gap with the given mean.
func (r *rng) expGap(meanNS float64) int64 {
	return int64(-math.Log(1-r.float()) * meanNS)
}

// mix64 is the splitmix64 finaliser: a bijection on uint64, so distinct ids
// give distinct, uniformly spread keys.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

const keyLen = 8

// putKey writes record id's 8-byte key: the big-endian scramble of the id,
// so dense ids (cheap to model) land uniformly over the key space.
func putKey(dst []byte, id uint64) { binary.BigEndian.PutUint64(dst, mix64(id)) }

// valHeader is the self-describing prefix of every value: record id and
// version. A reader can check any value it is handed without knowing which
// write produced it: the rest of the bytes are a function of the header.
const valHeader = 12

// fillValue writes the value of (id, ver) into dst; len(dst) >= valHeader.
func fillValue(dst []byte, id uint64, ver uint32) {
	binary.BigEndian.PutUint64(dst, id)
	binary.BigEndian.PutUint32(dst[8:], ver)
	s := mix64(id ^ uint64(ver)<<40)
	i := valHeader
	for ; i+8 <= len(dst); i += 8 {
		s += 0x9E3779B97F4A7C15
		binary.LittleEndian.PutUint64(dst[i:], mix64(s))
	}
	for ; i < len(dst); i++ {
		s += 0x9E3779B97F4A7C15
		dst[i] = byte(mix64(s))
	}
}

// checkValue reports whether v is a well-formed value of record id and
// returns the version it carries.
func checkValue(v []byte, id uint64, scratch []byte) (uint32, bool) {
	if len(v) < valHeader || len(v) > len(scratch) || binary.BigEndian.Uint64(v) != id {
		return 0, false
	}
	ver := binary.BigEndian.Uint32(v[8:])
	want := scratch[:len(v)]
	fillValue(want, id, ver)
	return ver, bytes.Equal(want, v)
}

// zipf draws ranks in [0, n) with P(rank k) ∝ 1/(k+1)^theta by inverting a
// precomputed cumulative table (n is small: the hot set of server-mixed).
type zipf struct{ cdf []float64 }

func newZipf(n int, theta float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := range z.cdf {
		sum += 1 / math.Pow(float64(k+1), theta)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	u := r.float()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
