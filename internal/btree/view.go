package btree

import (
	"fasp/internal/pager"
	"fasp/internal/slotted"
)

// View is a read-only walker over the last committed state of a store,
// reading pages through the store's committed snapshot (PeekCommitted)
// instead of opening a pager transaction. It never mutates simulated
// machine state (no clock advance, no cache fills, no crash points): every
// byte it touches is charged to an internal cost accumulator that mirrors
// exactly what a transaction's arena Loads would have cost, so callers can
// report an equivalent simulated latency. It descends and scans through the
// same code as a Tx (walk.go), as the pageSource of the committed image.
//
// A View is NOT safe for concurrent use and must only walk while the store
// is quiescent (no commit in progress) — the shard engine's read gate, or
// its shard lock, provides that window. Keys and values passed to scan
// callbacks are valid only during the callback.
type View struct {
	st       pager.Store
	pageSize int
	cost     int64
	frames   []*viewFrame
	path     []pathElem // Get's descent path
	walker
}

// viewFrame is the page a View has open at one depth: a slotted page handle
// bound to a peek-backed Mem. Frames are pooled per View and reused by depth.
type viewFrame struct {
	mem  peekMem
	page slotted.Page
}

// peekMem adapts a (store, page) pair to slotted.Mem. All reads
// funnel through PeekCommitted; writes are impossible by construction. The
// scratch buffer backs Read results, which Page consumes before issuing the
// next read on the same handle (slotted documents exactly that discipline
// for its own transient reads).
type peekMem struct {
	v   *View
	no  uint32
	buf []byte
}

// peekFault carries a PeekCommitted error out of slotted's panic-free read
// accessors; View entry points recover it back into an error return.
type peekFault struct{ err error }

func (m *peekMem) PageSize() int { return m.v.pageSize }

func (m *peekMem) ReadInto(off int, dst []byte) {
	c, err := m.v.st.PeekCommitted(m.no, off, dst)
	if err != nil {
		panic(peekFault{err})
	}
	m.v.cost += c
}

func (m *peekMem) Read(off, n int) []byte {
	if cap(m.buf) < n {
		m.buf = make([]byte, n)
	}
	b := m.buf[:n]
	m.ReadInto(off, b)
	return b
}

// Compute adds what a transaction's Compute would have charged.
func (m *peekMem) Compute(n int64) { m.v.cost += m.v.st.ComputeCost(n) }

func (m *peekMem) Write(int, []byte) { panic("btree: write through read-only view") }
func (m *peekMem) HeaderChanged(*slotted.Header) {
	panic("btree: header change through read-only view")
}

// NewView returns an unbound View; Reset binds it to a store snapshot.
func NewView() *View { return &View{} }

// Reset binds the view to a store's committed snapshot and zeroes the cost
// accumulator. Views are pooled across reads; Reset is the rebind point.
func (v *View) Reset(st pager.Store) {
	v.st = st
	v.pageSize = st.PageSize()
	v.cost = 0
}

// Release drops the store reference so a pooled View cannot pin a healed
// shard's old arena.
func (v *View) Release() { v.st = nil }

// Cost returns the accumulated simulated read cost in nanoseconds.
func (v *View) Cost() int64 { return v.cost }

// page opens page no of the committed image in the pooled frame for depth:
// a pageSource.
func (v *View) page(depth int, no uint32) (*slotted.Page, error) {
	for len(v.frames) <= depth {
		f := &viewFrame{}
		f.mem.v = v
		v.frames = append(v.frames, f)
	}
	f := v.frames[depth]
	f.mem.no = no
	if err := slotted.OpenInto(&f.page, &f.mem); err != nil {
		return nil, err
	}
	return &f.page, nil
}

// run executes op, converting peekFault panics back into errors.
func (v *View) run(op func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			pf, ok := r.(peekFault)
			if !ok {
				panic(r)
			}
			err = pf.err
		}
	}()
	return op()
}

// Get returns the value stored under key in the committed snapshot. The
// result is appended to dst[:0] (dst may be nil) and never aliases view or
// store memory, so it stays valid after the caller leaves the read gate.
func (v *View) Get(key, dst []byte) ([]byte, bool, error) {
	var out []byte
	var found bool
	err := v.run(func() (err error) {
		v.path, err = descend(v, v.st.CommittedRoot(), key, v.path)
		if err != nil || len(v.path) == 0 {
			return err
		}
		if i, ok := searchLeaf(v.path, key); ok {
			out, found = append(dst[:0], v.path[len(v.path)-1].page.Value(i)...), true
		}
		return nil
	})
	if err != nil {
		return nil, false, err
	}
	return out, found, nil
}

// Scan visits committed records within b in key order (descending when
// b.Reverse), stopping early when fn returns false. Key and value slices
// are valid only during the callback.
func (v *View) Scan(b Bounds, fn func(key, val []byte) bool) error {
	return v.run(func() error { return v.scan(v, v.st.CommittedRoot(), &b, fn) })
}
