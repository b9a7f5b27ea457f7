package server

import (
	"sync"
	"sync/atomic"
)

// Session-scoped sequence-token dedup — the server half of the client retry
// layer's exactly-once contract.
//
// A retrying client binds each connection to a session (HELLO, client-chosen
// u64 id) and tags every write with a per-session sequence token
// (PUT_SEQ/DEL_SEQ/BATCH_SEQ). When a connection dies between the server's
// commit and the client's read of the ack, the client replays the unacked
// frames on a fresh connection under the same session; the tokens let the
// server tell a replay of a committed write from a genuinely new one:
//
//	fresh    — first sighting: execute, then complete() caches the
//	           encoded reply frame.
//	done     — a replay of a completed write: answer the cached frame
//	           verbatim, execute nothing (exactly-once).
//	inflight — the original is still racing through another connection's
//	           commit: wait for its verdict, then re-resolve.
//	stale    — the token fell out of the bounded window; the client gave
//	           up on it long ago, answer a typed error.
//
// A write the server *refused* without applying (BUSY shed, SHUTDOWN drain)
// calls cancel() instead: the token is forgotten, so a retry re-executes —
// dedup protects applied writes only.
//
// The window is bounded (dedupWindow) and the session table is bounded
// (maxSessions), so a hostile or leaky client cannot grow
// server state without bound. The table does not survive a server restart:
// a replay that crosses a restart re-executes, which is safe for the
// upsert/delete ops the retry layer replays (and pinned as such by the
// chaos soak's unique-key oracle).

// seqState is begin's verdict for one token.
type seqState int

const (
	seqFresh seqState = iota
	seqDone
	seqInflight
	seqStale
)

// seqEntry tracks one token. done closes when the write's verdict is known;
// reply is the cached response frame (nil means canceled — not applied).
type seqEntry struct {
	done  chan struct{}
	reply []byte
}

// session is one client session's dedup window. Cached replies are
// bounded twice: by token count (window) and by bytes (budget) — doneq
// records completed tokens in completion order, and complete() evicts
// oldest-first past the byte budget. An evicted token's replay simply
// re-executes, the same semantics as crossing a server restart; the ops
// the retry layer replays are safe to re-apply by contract.
type session struct {
	mu      sync.Mutex
	win     map[uint64]*seqEntry
	maxDone uint64 // highest completed token
	window  uint64
	budget  int64    // cached-reply byte budget (0 = unbounded)
	cached  int64    // reply bytes currently cached
	doneq   []uint64 // completed tokens, oldest first (byte-eviction order)

	// bytes is the server-wide dedup-cache gauge
	// (fasp_server_dedup_cache_bytes); nil in bare tests.
	bytes *atomic.Int64
}

// uncache drops a cached reply's bytes from the session and server
// accounting. Callers hold ss.mu.
func (ss *session) uncache(e *seqEntry) {
	if n := int64(len(e.reply)); n > 0 {
		ss.cached -= n
		if ss.bytes != nil {
			ss.bytes.Add(-n)
		}
	}
}

// begin resolves one token. The caller must not hold any session lock.
func (ss *session) begin(seq uint64) (*seqEntry, seqState) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if e := ss.win[seq]; e != nil {
		select {
		case <-e.done:
			if e.reply == nil {
				// Completed as a cancel that raced the map delete: treat
				// as fresh.
				e = &seqEntry{done: make(chan struct{})}
				ss.win[seq] = e
				return e, seqFresh
			}
			return e, seqDone
		default:
			return e, seqInflight
		}
	}
	if ss.maxDone > ss.window && seq <= ss.maxDone-ss.window {
		return nil, seqStale
	}
	e := &seqEntry{done: make(chan struct{})}
	ss.win[seq] = e
	return e, seqFresh
}

// complete records a committed write's encoded reply frame and wakes any
// duplicate waiting on it. reply is copied.
func (ss *session) complete(seq uint64, reply []byte) {
	ss.mu.Lock()
	e := ss.win[seq]
	if e == nil {
		ss.mu.Unlock()
		return
	}
	e.reply = append(make([]byte, 0, len(reply)), reply...)
	ss.cached += int64(len(e.reply))
	if ss.bytes != nil {
		ss.bytes.Add(int64(len(e.reply)))
	}
	ss.doneq = append(ss.doneq, seq)
	if seq > ss.maxDone {
		ss.maxDone = seq
	}
	close(e.done)
	// Evict tokens that fell out of the window; amortised so the common
	// case is O(1).
	if ss.maxDone > ss.window && uint64(len(ss.win)) > 2*ss.window {
		lo := ss.maxDone - ss.window
		for k, old := range ss.win {
			if k > lo {
				continue
			}
			select {
			case <-old.done:
				ss.uncache(old)
				delete(ss.win, k)
			default: // still in flight; keep
			}
		}
	}
	// Byte budget: evict completed entries oldest-first until under. A
	// doneq token whose entry is gone (window eviction, cancel re-arm) is
	// just skipped.
	for ss.budget > 0 && ss.cached > ss.budget && len(ss.doneq) > 0 {
		k := ss.doneq[0]
		ss.doneq = ss.doneq[1:]
		old := ss.win[k]
		if old == nil || old.reply == nil {
			continue
		}
		select {
		case <-old.done:
		default:
			continue // re-armed as fresh; not evictable
		}
		ss.uncache(old)
		delete(ss.win, k)
	}
	// Compact doneq once it is dominated by dead tokens, so the queue
	// cannot outgrow the window it tracks.
	if len(ss.doneq) > 2*len(ss.win)+16 {
		q := ss.doneq[:0]
		for _, k := range ss.doneq {
			if old := ss.win[k]; old != nil && old.reply != nil {
				q = append(q, k)
			}
		}
		ss.doneq = q
	}
	ss.mu.Unlock()
}

// cancel forgets a token whose write was refused without being applied
// (BUSY/SHUTDOWN shed); a retry re-executes under a fresh entry. Duplicate
// waiters see done with a nil reply and re-begin.
func (ss *session) cancel(seq uint64) {
	ss.mu.Lock()
	e := ss.win[seq]
	if e != nil {
		delete(ss.win, seq)
		close(e.done)
	}
	ss.mu.Unlock()
}

// sessionTable is the server's bounded session registry.
type sessionTable struct {
	mu     sync.Mutex
	m      map[uint64]*session
	cap    int
	window uint64
	budget int64 // per-session cached-reply byte budget (0 = unbounded)

	// bytes is the server-wide dedup-cache gauge, shared with every
	// session (nil in bare tests).
	bytes *atomic.Int64
}

func newSessionTable(capacity, window, budgetBytes int) *sessionTable {
	if budgetBytes < 0 { // -1: explicitly unbounded
		budgetBytes = 0
	}
	return &sessionTable{
		m:      make(map[uint64]*session),
		cap:    capacity,
		window: uint64(window),
		budget: int64(budgetBytes),
	}
}

// get returns (creating if needed) the session for id. At capacity an
// arbitrary existing session is evicted — eviction only widens a victim's
// retry semantics (its replays re-execute, same as crossing a restart).
func (t *sessionTable) get(id uint64) *session {
	t.mu.Lock()
	defer t.mu.Unlock()
	if ss := t.m[id]; ss != nil {
		return ss
	}
	if len(t.m) >= t.cap {
		for k, victim := range t.m {
			// The victim's cached bytes leave the server-wide gauge with it.
			victim.mu.Lock()
			if victim.cached > 0 && t.bytes != nil {
				t.bytes.Add(-victim.cached)
				victim.cached = 0
			}
			victim.mu.Unlock()
			delete(t.m, k)
			break
		}
	}
	ss := &session{win: make(map[uint64]*seqEntry), window: t.window, budget: t.budget, bytes: t.bytes}
	t.m[id] = ss
	return ss
}
