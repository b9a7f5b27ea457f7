package main

import (
	"bytes"
	"sort"
	"sync/atomic"

	"fasp/internal/server/wire"
)

// srvSizing sizes a server workload.
type srvSizing struct {
	shards  int     // KV shards behind the server
	conns   int     // client connections (and generator goroutines per direction)
	keys    int     // preloaded records; every request addresses one of them
	valLen  int     // value length of every record
	depth   int     // requests in flight per connection; 1 is a synchronous client
	batch   int     // ops per BATCH request
	scanLen int     // SCAN limit
	zipf    float64 // key popularity exponent (0 = uniform)
	// sessions puts every connection on a HELLO session and sends writes as
	// PUT_SEQ through the server's dedup window.
	sessions bool
	// openRate adds an open-loop phase to the traced run: this many requests
	// per second offered over all connections, whatever the server does.
	openRate float64
	setups   int
	// calibrate is how long the generator runs against the stub listener
	// before the measured phase; probe is the depth-1 round trips timed for
	// the unloaded floor.
	calibrate float64
	probe     int
}

// srvModel is the reference for a store written through several
// connections at once. Every record has exactly one writer — connection
// id mod conns — whose requests the server answers in order, so the model
// never has to guess which of two racing writes won: sent is that writer's
// private count of versions issued, acked (published atomically) the last
// one the server confirmed. A reader on another connection may see any
// version from acked-at-send onwards; it may never see an older one.
type srvModel struct {
	sz    srvSizing
	sent  []uint32
	acked []atomic.Uint32
	// sorted lists the record ids in key order; rank is its inverse. SCAN
	// replies are checked against them: the key set never changes.
	sorted []uint32
	rank   []uint32
}

func newSrvModel(sz srvSizing) *srvModel {
	m := &srvModel{sz: sz, sent: make([]uint32, sz.keys), acked: make([]atomic.Uint32, sz.keys),
		sorted: make([]uint32, sz.keys), rank: make([]uint32, sz.keys)}
	for id := range m.sent {
		m.sent[id] = 1
		m.acked[id].Store(1)
		m.sorted[id] = uint32(id)
	}
	sort.Slice(m.sorted, func(i, j int) bool { return mix64(uint64(m.sorted[i])) < mix64(uint64(m.sorted[j])) })
	for r, id := range m.sorted {
		m.rank[id] = uint32(r)
	}
	return m
}

// kv returns the final state as a kvModel, for the end-of-run comparison.
// It is called once every request has been answered, so sent == acked.
func (m *srvModel) kv() *kvModel {
	out := &kvModel{}
	for id, ver := range m.sent {
		out.put(uint32(id), ver, m.sz.valLen)
	}
	return out
}

// Request kinds, as the generator draws them.
const (
	reqPut = iota
	reqBatch
	reqGet
	reqScan
	reqKinds
	reqEnd = reqKinds // open loop: the PING that closes the stream
)

// request is one generated request and what its answer must look like.
type request struct {
	kind  uint8
	n     uint8     // ops carried: 1, or the BATCH size
	ids   [8]uint32 // records addressed (ids[0] for single-op kinds)
	vers  [8]uint32 // writes: the version each op installs
	floor uint32    // GET: the oldest version the answer may carry
	dueNS int64     // open loop: when it was due, ns from the window start
}

// srvStream draws one connection's requests from the seed.
type srvStream struct {
	r      *rng
	m      *srvModel
	conn   int
	zipf   *zipf
	mix    [reqKinds]int // cumulative percentages, in reqKinds order
	sid    uint64        // session id (sessions only)
	seq    uint64        // PUT_SEQ token counter (sessions only)
	key    [keyLen]byte
	hi     [keyLen]byte // SCAN upper bound
	val    []byte
	bops   []wire.BatchOp
	bkeys  [8][keyLen]byte
	bvals  [8][]byte
	sessed bool
}

// newSrvStream returns connection conn's stream; id picks the random
// stream, so a repeated attempt on the same connection draws afresh.
func newSrvStream(seed int64, m *srvModel, conn int, id uint64, mix [reqKinds]int) *srvStream {
	s := &srvStream{r: newRNG(seed, 100+id), m: m, conn: conn, mix: mix, sessed: m.sz.sessions, sid: uint64(seed)<<16 | id,
		val: make([]byte, m.sz.valLen), bops: make([]wire.BatchOp, m.sz.batch)}
	if m.sz.zipf > 0 {
		s.zipf = newZipf(m.sz.keys, m.sz.zipf)
	}
	for i := range s.bvals {
		s.bvals[i] = make([]byte, m.sz.valLen)
	}
	return s
}

// anyID draws a record by popularity; ownID maps the draw onto a record
// this connection writes.
func (s *srvStream) anyID() uint32 {
	if s.zipf != nil {
		return uint32(s.zipf.draw(s.r))
	}
	return uint32(s.r.intn(s.m.sz.keys))
}

func (s *srvStream) ownID() uint32 {
	id := s.anyID()
	return id - id%uint32(s.m.sz.conns) + uint32(s.conn)
}

func (s *srvStream) write(q *request, i int) {
	id := s.ownID()
	s.m.sent[id]++
	q.ids[i], q.vers[i] = id, s.m.sent[id]
}

// draw picks the next request and builds its key and value bytes in the
// stream's buffers; frame appends its wire encoding to dst.
func (s *srvStream) draw(q *request) {
	u := s.r.intn(100)
	switch {
	case u < s.mix[reqPut]:
		q.kind, q.n = reqPut, 1
		s.write(q, 0)
		putKey(s.key[:], uint64(q.ids[0]))
		fillValue(s.val, uint64(q.ids[0]), q.vers[0])
	case u < s.mix[reqBatch]:
		q.kind, q.n = reqBatch, uint8(len(s.bops))
		for i := range s.bops {
			s.write(q, i)
			putKey(s.bkeys[i][:], uint64(q.ids[i]))
			fillValue(s.bvals[i], uint64(q.ids[i]), q.vers[i])
			s.bops[i] = wire.BatchOp{Kind: wire.KindPut, Key: s.bkeys[i][:], Val: s.bvals[i]}
		}
	case u < s.mix[reqGet]:
		q.kind, q.n = reqGet, 1
		id := s.anyID()
		q.ids[0] = id
		if int(id)%s.m.sz.conns == s.conn {
			q.floor = s.m.sent[id] // own record: the server flushes our writes first
		} else {
			q.floor = s.m.acked[id].Load()
		}
		putKey(s.key[:], uint64(id))
	default:
		// A range scan of scanLen records: from a drawn key to the key
		// scanLen-1 places after it in key order, both bounds given. (With
		// the upper bound left open the engine makes every shard produce a
		// full chunk of records before the limit cuts the merge short,
		// which costs over a millisecond a request on this store and turns
		// the workload into a scan benchmark.)
		q.kind, q.n = reqScan, 1
		q.ids[0] = s.anyID()
		putKey(s.key[:], uint64(q.ids[0]))
		last := min(int(s.m.rank[q.ids[0]])+s.m.sz.scanLen, s.m.sz.keys) - 1
		putKey(s.hi[:], uint64(s.m.sorted[last]))
	}
}

func (s *srvStream) frame(q *request, dst []byte) []byte {
	switch q.kind {
	case reqPut:
		if s.sessed {
			s.seq++
			return wire.AppendPutSeq(dst, s.seq, s.key[:], s.val)
		}
		return wire.AppendPut(dst, s.key[:], s.val)
	case reqBatch:
		return wire.AppendBatch(dst, s.bops)
	case reqGet:
		return wire.AppendGet(dst, s.key[:])
	}
	return wire.AppendScan(dst, s.key[:], s.hi[:], false, false, uint32(s.m.sz.scanLen))
}

// verify checks one answer against the model and, for writes, publishes
// the acknowledgement. It reports whether the answer was the right one.
func (m *srvModel) verify(q *request, code wire.Code, payload []byte, codes *[]wire.Code, scratch []byte) bool {
	switch q.kind {
	case reqPut:
		if code != wire.CodeOK {
			return false
		}
		m.acked[q.ids[0]].Store(q.vers[0])
		return true
	case reqBatch:
		if code != wire.CodeOK {
			return false
		}
		var err error
		if *codes, err = wire.ParseBatchReply(payload, *codes); err != nil || len(*codes) != int(q.n) {
			return false
		}
		ok := true
		for i, c := range *codes {
			if c != wire.CodeOK {
				ok = false
				continue
			}
			m.acked[q.ids[i]].Store(q.vers[i])
		}
		return ok
	case reqGet:
		ver, good := checkValue(payload, uint64(q.ids[0]), scratch)
		return code == wire.CodeOK && good && ver >= q.floor && len(payload) == m.sz.valLen
	default:
		if code != wire.CodeOK {
			return false
		}
		at := int(m.rank[q.ids[0]])
		want := min(m.sz.scanLen, m.sz.keys-at)
		got, ok := 0, true
		var key [keyLen]byte
		_, err := wire.ParseScanReply(payload, func(k, v []byte) bool {
			if got >= want {
				ok = false
				return false
			}
			id := m.sorted[at+got]
			putKey(key[:], uint64(id))
			if _, good := checkValue(v, uint64(id), scratch); !good || !bytes.Equal(k, key[:]) {
				ok = false
			}
			got++
			return true
		})
		return err == nil && ok && got == want
	}
}
