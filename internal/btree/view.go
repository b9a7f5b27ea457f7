package btree

import (
	"bytes"
	"fmt"

	"fasp/internal/pager"
	"fasp/internal/slotted"
)

// View is a read-only walker over the last committed state of a store,
// reading pages through the store's committed snapshot (PeekCommitted)
// instead of opening a pager transaction. It never mutates simulated
// machine state (no clock advance, no cache fills, no crash points): every
// byte it touches is charged to an internal cost accumulator that mirrors
// exactly what a transaction's arena Loads would have cost, so callers can
// report an equivalent simulated latency.
//
// A View is NOT safe for concurrent use and must only walk while the store
// is quiescent (no commit in progress) — the shard engine's epoch gate, or
// its shard lock, provides that window. Keys and values passed to scan callbacks are valid
// only during the callback.
type View struct {
	st       pager.Store
	pageSize int
	cost     int64
	frames   []*viewFrame
	keyBuf   []byte
	rng      slotted.KeyRange // bounds of the page a descent is at, as in Tx.descend
}

// viewFrame is one level of the descent stack: a slotted page handle bound
// to a peek-backed Mem. Frames are pooled per View and reused by depth.
type viewFrame struct {
	mem  peekMem
	page slotted.Page
	next int
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

// frame returns the pooled frame for one descent level.
func (v *View) frame(i int) *viewFrame {
	for len(v.frames) <= i {
		f := &viewFrame{}
		f.mem.v = v
		v.frames = append(v.frames, f)
	}
	return v.frames[i]
}

// open binds the depth-th frame to page no and decodes its header.
func (v *View) open(depth int, no uint32) (*viewFrame, error) {
	f := v.frame(depth)
	f.mem.no = no
	if err := slotted.OpenInto(&f.page, &f.mem); err != nil {
		return nil, err
	}
	f.next = 0
	return f, nil
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
	err := v.run(func() error {
		no := v.st.CommittedRoot()
		if no == 0 {
			return nil
		}
		v.rng.Open()
		for depth := 0; ; depth++ {
			if depth > 64 {
				return fmt.Errorf("%w: descent too deep (cycle?)", pager.ErrCorrupt)
			}
			f, err := v.open(depth, no)
			if err != nil {
				return err
			}
			p := &f.page
			if p.Type() == slotted.TypeLeaf {
				i, ok := p.SearchRange(key, &v.rng)
				if !ok {
					return nil
				}
				out = append(dst[:0], p.Value(i)...)
				found = true
				return nil
			}
			i, _ := p.SearchRange(key, &v.rng)
			if i < p.NCells() {
				no = p.Child(i)
			} else {
				no = p.Aux()
				if no == 0 {
					return fmt.Errorf("%w: interior page %d lacks rightmost child",
						pager.ErrCorrupt, f.mem.no)
				}
			}
		}
	})
	if err != nil {
		return nil, false, err
	}
	return out, found, nil
}

// Bounds selects a key range for View.Scan. Nil bounds are open; LoX/HiX
// make the corresponding bound exclusive — the shard engine's chunked
// readers use that to resume a scan just past the last delivered key.
type Bounds struct {
	Lo, Hi   []byte
	LoX, HiX bool
	Reverse  bool
}

// Scan visits committed records within b in key order (descending when
// b.Reverse), stopping early when fn returns false. Key and value slices
// are valid only during the callback. The visit order and record bytes are
// identical to Tx.Scan/Tx.ScanReverse over the same committed state.
func (v *View) Scan(b Bounds, fn func(key, val []byte) bool) error {
	return v.run(func() error {
		if b.Reverse {
			return v.scanReverse(b, fn)
		}
		return v.scanForward(b, fn)
	})
}

func (v *View) scanForward(b Bounds, fn func(key, val []byte) bool) error {
	root := v.st.CommittedRoot()
	if root == 0 {
		return nil
	}
	v.rng.Open()
	depth := 0
	push := func(no uint32, first bool) error {
		if depth > 64 {
			return fmt.Errorf("%w: descent too deep (cycle?)", pager.ErrCorrupt)
		}
		f, err := v.open(depth, no)
		if err != nil {
			return err
		}
		if first && b.Lo != nil {
			f.next, _ = f.page.SearchRange(b.Lo, &v.rng)
		}
		depth++
		return nil
	}
	if err := push(root, true); err != nil {
		return err
	}
	first := true
	for depth > 0 {
		f := v.frames[depth-1]
		p := &f.page
		if p.Type() == slotted.TypeLeaf {
			for ; f.next < p.NCells(); f.next++ {
				k := p.Key(f.next)
				if b.Lo != nil {
					if c := bytes.Compare(k, b.Lo); c < 0 || (b.LoX && c == 0) {
						continue
					}
				}
				if b.Hi != nil {
					if c := bytes.Compare(k, b.Hi); c > 0 || (b.HiX && c == 0) {
						return nil
					}
				}
				// Key into the view scratch: Value reuses the frame's read
				// buffer and would clobber it otherwise.
				v.keyBuf = append(v.keyBuf[:0], k...)
				if !fn(v.keyBuf, p.Value(f.next)) {
					return nil
				}
			}
			depth--
			first = false
			continue
		}
		// Interior: children are cell 0..n-1, then the rightmost pointer.
		if f.next > p.NCells() {
			depth--
			first = false
			continue
		}
		var child uint32
		if f.next < p.NCells() {
			// Prune subtrees entirely above hi: subtree keys exceed the
			// previous separator, so ≥ hi suffices under an exclusive bound.
			if b.Hi != nil && f.next > 0 {
				if c := bytes.Compare(p.Key(f.next-1), b.Hi); c > 0 || (b.HiX && c == 0) {
					return nil
				}
			}
			child = p.Child(f.next)
		} else {
			child = p.Aux()
		}
		f.next++
		if child == 0 {
			continue
		}
		if err := push(child, first); err != nil {
			return err
		}
	}
	return nil
}

func (v *View) scanReverse(b Bounds, fn func(key, val []byte) bool) error {
	root := v.st.CommittedRoot()
	if root == 0 {
		return nil
	}
	v.rng.Open()
	depth := 0
	push := func(no uint32, first bool) error {
		if depth > 64 {
			return fmt.Errorf("%w: descent too deep (cycle?)", pager.ErrCorrupt)
		}
		f, err := v.open(depth, no)
		if err != nil {
			return err
		}
		p := &f.page
		if p.Type() != slotted.TypeLeaf {
			f.next = p.NCells() + 1 // children: cells 0..n-1 then Aux ⇒ reverse starts at Aux
			if first && b.Hi != nil {
				// Children past Search(hi) hold keys strictly above their
				// preceding separator, itself ≥ hi — skip them and Aux.
				if i, _ := p.SearchRange(b.Hi, &v.rng); i < p.NCells() {
					f.next = i + 1
				}
			}
		} else {
			f.next = p.NCells()
			if first && b.Hi != nil {
				i, found := p.SearchRange(b.Hi, &v.rng)
				if found && !b.HiX {
					f.next = i + 1
				} else {
					f.next = i
				}
			}
		}
		depth++
		return nil
	}
	if err := push(root, true); err != nil {
		return err
	}
	first := true
	for depth > 0 {
		f := v.frames[depth-1]
		p := &f.page
		if p.Type() == slotted.TypeLeaf {
			for f.next--; f.next >= 0; f.next-- {
				k := p.Key(f.next)
				if b.Hi != nil {
					if c := bytes.Compare(k, b.Hi); c > 0 || (b.HiX && c == 0) {
						continue
					}
				}
				if b.Lo != nil {
					if c := bytes.Compare(k, b.Lo); c < 0 || (b.LoX && c == 0) {
						return nil
					}
				}
				v.keyBuf = append(v.keyBuf[:0], k...)
				if !fn(v.keyBuf, p.Value(f.next)) {
					return nil
				}
			}
			depth--
			first = false
			continue
		}
		// Interior, descending: Aux first, then cells n-1..0.
		f.next--
		if f.next < 0 {
			depth--
			first = false
			continue
		}
		var child uint32
		if f.next == p.NCells() {
			child = p.Aux()
		} else {
			// Prune subtrees entirely below lo: the separator is the subtree
			// max, so ≤ lo suffices under an exclusive bound.
			if b.Lo != nil {
				if c := bytes.Compare(p.Key(f.next), b.Lo); c < 0 || (b.LoX && c == 0) {
					return nil
				}
			}
			child = p.Child(f.next)
		}
		if child == 0 {
			continue
		}
		if err := push(child, first); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of committed records.
func (v *View) Count() (int, error) {
	n := 0
	err := v.Scan(Bounds{}, func(_, _ []byte) bool { n++; return true })
	return n, err
}
