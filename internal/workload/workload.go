// Package workload generates the deterministic key/value streams the
// paper's evaluation uses: uniformly random keys (the paper's default —
// "100,000 insertions each invoked through an INSERT statement with
// randomly generated keys"), sequential keys, zipfian skew, configurable
// record sizes, and transaction shapes (single-insert mobile transactions,
// multi-insert batches, and mixed CRUD streams).
package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// KeyDist selects the key distribution.
type KeyDist int

const (
	// UniformKeys draws keys uniformly at random without repetition.
	UniformKeys KeyDist = iota
	// SequentialKeys issues monotonically increasing keys.
	SequentialKeys
	// ZipfKeys draws from a zipfian distribution (reuse-heavy).
	ZipfKeys
)

// Config parameterises a generator.
type Config struct {
	Seed       int64
	Keys       KeyDist
	KeySpace   uint64 // uniform/zipf key universe (default 1<<40)
	RecordSize int    // value bytes per record (default 64, the paper's)
	Zipf       float64
}

func (c *Config) fill() {
	if c.KeySpace == 0 {
		c.KeySpace = 1 << 40
	}
	if c.RecordSize == 0 {
		c.RecordSize = 64
	}
	if c.Zipf == 0 {
		c.Zipf = 1.2
	}
}

// Gen produces keys and values.
type Gen struct {
	cfg  Config
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  uint64
	used map[uint64]bool
}

// New creates a deterministic generator.
func New(cfg Config) *Gen {
	cfg.fill()
	g := &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), used: make(map[uint64]bool)}
	if cfg.Keys == ZipfKeys {
		g.zipf = rand.NewZipf(g.rng, cfg.Zipf, 1, cfg.KeySpace-1)
	}
	return g
}

// NextKey returns the next 8-byte big-endian key.
func (g *Gen) NextKey() []byte {
	var id uint64
	switch g.cfg.Keys {
	case SequentialKeys:
		g.seq++
		id = g.seq
	case ZipfKeys:
		id = g.zipf.Uint64()
	default:
		for {
			id = g.rng.Uint64() % g.cfg.KeySpace
			if !g.used[id] {
				break
			}
		}
	}
	g.used[id] = true
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], id)
	return k[:]
}

// UsedKey returns a previously issued key (for updates/deletes/lookups);
// it falls back to a fresh key when none exist.
func (g *Gen) UsedKey() []byte {
	if len(g.used) == 0 {
		return g.NextKey()
	}
	// Deterministic pick: draw until a used id is hit; bounded retries keep
	// this cheap for dense key sets, with a linear fallback.
	for try := 0; try < 64; try++ {
		id := g.rng.Uint64() % g.cfg.KeySpace
		if g.used[id] {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], id)
			return k[:]
		}
	}
	target := g.rng.Intn(len(g.used))
	i := 0
	for id := range g.used {
		if i == target {
			var k [8]byte
			binary.BigEndian.PutUint64(k[:], id)
			return k[:]
		}
		i++
	}
	return g.NextKey()
}

// Forget removes a key from the used set after a delete.
func (g *Gen) Forget(k []byte) {
	delete(g.used, binary.BigEndian.Uint64(k))
}

// Intn draws a uniform int in [0, n) from the generator's stream, for
// callers that keep their own population (live row ids, say) and must pick
// from it reproducibly.
func (g *Gen) Intn(n int) int { return g.rng.Intn(n) }

// NextValue returns a pseudo-random record body of the configured size.
func (g *Gen) NextValue() []byte {
	v := make([]byte, g.cfg.RecordSize)
	g.rng.Read(v)
	return v
}

// ValueOfSize returns a record body of an explicit size.
func (g *Gen) ValueOfSize(n int) []byte {
	v := make([]byte, n)
	g.rng.Read(v)
	return v
}

// OpKind enumerates mixed-workload operations.
type OpKind int

// Operation kinds for mixed streams.
const (
	OpInsert OpKind = iota
	OpUpdate
	OpDelete
	OpSelect
)

func (k OpKind) String() string {
	switch k {
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	default:
		return "select"
	}
}

// Mix is a CRUD ratio; fields need not sum to 1 (they are normalised).
type Mix struct {
	Insert, Update, Delete, Select float64
}

// MobileMix is the paper's Android-style workload: every transaction
// inserts a single record.
var MobileMix = Mix{Insert: 1}

// BalancedMix exercises all four operations.
var BalancedMix = Mix{Insert: 0.5, Update: 0.2, Delete: 0.1, Select: 0.2}

// NextOp draws an operation kind from the mix.
func (g *Gen) NextOp(m Mix) OpKind {
	total := m.Insert + m.Update + m.Delete + m.Select
	if total <= 0 {
		return OpInsert
	}
	x := g.rng.Float64() * total
	switch {
	case x < m.Insert:
		return OpInsert
	case x < m.Insert+m.Update:
		return OpUpdate
	case x < m.Insert+m.Update+m.Delete:
		return OpDelete
	default:
		return OpSelect
	}
}

// SQLInsert renders a single-row INSERT statement for the engine-level
// experiments (Figures 11–12).
func SQLInsert(table string, id uint64, payload []byte) string {
	return fmt.Sprintf("INSERT INTO %s VALUES (%d, x'%x')", table, id, payload)
}

// Percentile computes the p-th percentile (0..100) of a sample slice
// without sorting the caller's copy.
func Percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]int64(nil), xs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i] < cp[j] })
	idx := int(math.Ceil(p/100*float64(len(cp)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(cp) {
		idx = len(cp) - 1
	}
	return cp[idx]
}
