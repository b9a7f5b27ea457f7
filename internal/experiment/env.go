// Package experiment reproduces the paper's evaluation (Figures 6–12): one
// driver per figure, each running the schemes under test (NVWAL, FAST,
// FAST+, plus the extra WAL and Journal baselines) on the simulated PM
// machine and reporting the same rows and series the paper plots. Absolute
// numbers are simulated nanoseconds; the claims being reproduced are
// relative (who wins, by what factor, where crossovers fall).
package experiment

import (
	"fmt"

	"fasp/internal/btree"
	"fasp/internal/engine"
	"fasp/internal/pager"
	"fasp/internal/pmem"
	"fasp/internal/scheme"
)

// Params controls experiment scale.
type Params struct {
	// N is the number of transactions per data point (the paper uses
	// 100,000; the default here is 10,000 for quick runs).
	N int
	// PageSize is the database page size (default 4096).
	PageSize int
	// MaxPages bounds the page space (default sized from N).
	MaxPages int
	// Seed drives the workload generator.
	Seed int64
}

func (p *Params) fill() {
	if p.N == 0 {
		p.N = 10000
	}
	if p.PageSize == 0 {
		p.PageSize = 4096
	}
	if p.MaxPages == 0 {
		// Generous: every insert could allocate a page plus slack.
		p.MaxPages = p.N/2 + 4096
	}
	if p.Seed == 0 {
		p.Seed = 42
	}
}

// Env is one instantiated system under test.
type Env struct {
	Scheme scheme.Scheme
	Sys    *pmem.System
	Store  pager.Store
	Tree   *btree.Tree
	// PM is the arena holding database pages and logs (counter source).
	PM *pmem.Arena
}

// NewEnv builds a fresh machine and store for a scheme: a 4 MiB
// slot-header log for FAST and FAST+, a 64 MiB log that checkpoints at
// 32 MiB for the baselines.
func NewEnv(s scheme.Scheme, lat pmem.LatencyModel, p Params) *Env {
	p.fill()
	sys := pmem.NewSystem(lat)
	g := scheme.Geometry{PageSize: p.PageSize, MaxPages: p.MaxPages, LogBytes: 64 << 20, CheckpointBytes: 32 << 20}
	if s.IsFAST() {
		g.LogBytes = 4 << 20
	}
	st := s.Create(sys, g)
	return &Env{Scheme: s, Sys: sys, Store: st, Tree: btree.New(st), PM: st.Arena()}
}

// NewEngineEnv builds an Env plus a SQL engine on top (Figures 11–12).
func NewEngineEnv(s scheme.Scheme, lat pmem.LatencyModel, p Params) (*Env, *engine.DB) {
	e := NewEnv(s, lat, p)
	return e, engine.Open(e.Store)
}

// LatencyPoints are the PM read/write latencies of Figure 6 (ns); local
// DRAM is 120 ns, so 120/120 is the "PM as fast as DRAM" point.
var LatencyPoints = []int64{120, 300, 600, 900, 1200}

// WriteLatencyPoints are Figure 8's write-latency sweep (read fixed 300).
var WriteLatencyPoints = []int64{300, 600, 900, 1200}

// LatencyLabel renders a read/write pair like the paper's axis labels.
func LatencyLabel(read, write int64) string {
	return fmt.Sprintf("%d/%d", read, write)
}
