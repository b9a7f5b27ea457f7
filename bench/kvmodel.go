package main

import (
	"bytes"
	"fmt"
	"sort"

	"fasp"
)

// kvModel is the benchmark's reference for a key/value store: for every
// record id, whether it is live and which version and length its value has.
// Values are a function of (id, version, length), so the model holds no
// bytes yet can reproduce any of them. It also draws uniformly from the
// live set, which the churn workload needs for updates and deletes.
type kvModel struct {
	live  []uint32 // live ids, unordered (swap-delete)
	pos   []int32  // id → index in live, -1 when absent
	ver   []uint32 // id → version of the last acked write
	vlen  []uint16 // id → value length of the last acked write
	bytes int64    // live user bytes: Σ (key + value)
}

func (m *kvModel) grow(id uint32) {
	for int(id) >= len(m.pos) {
		m.pos = append(m.pos, -1)
		m.ver = append(m.ver, 0)
		m.vlen = append(m.vlen, 0)
	}
}

func (m *kvModel) has(id uint32) bool { return int(id) < len(m.pos) && m.pos[id] >= 0 }

// put records an acked insert or update of id.
func (m *kvModel) put(id, ver uint32, vlen int) {
	m.grow(id)
	if m.pos[id] < 0 {
		m.pos[id] = int32(len(m.live))
		m.live = append(m.live, id)
		m.bytes += keyLen
	} else {
		m.bytes -= int64(m.vlen[id])
	}
	m.ver[id], m.vlen[id] = ver, uint16(vlen)
	m.bytes += int64(vlen)
}

// del records an acked delete of id.
func (m *kvModel) del(id uint32) {
	i := m.pos[id]
	last := m.live[len(m.live)-1]
	m.live[i], m.pos[last] = last, i
	m.live = m.live[:len(m.live)-1]
	m.pos[id] = -1
	m.bytes -= keyLen + int64(m.vlen[id])
}

// check compares the whole model with the store — record count, one full
// scan (every key, in order, with its exact value) and a Get of every
// 64th record — and returns the number of records that disagree.
func (m *kvModel) check(kv *fasp.KV) (bad int64, err error) {
	type rec struct {
		key [keyLen]byte
		id  uint32
	}
	want := make([]rec, len(m.live))
	for i, id := range m.live {
		putKey(want[i].key[:], uint64(id))
		want[i].id = id
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].key[:], want[j].key[:]) < 0 })

	n, err := kv.Count()
	if err != nil {
		return 0, fmt.Errorf("count: %w", err)
	}
	if n != len(want) {
		bad++
	}
	scratch := make([]byte, 1<<16)
	i := 0
	err = kv.Scan(nil, nil, func(k, v []byte) bool {
		for i < len(want) && bytes.Compare(want[i].key[:], k) < 0 {
			i++ // a record the model holds and the store lost
			bad++
		}
		if i == len(want) || !bytes.Equal(want[i].key[:], k) {
			bad++ // a record the store holds and no acked write put there
			return true
		}
		id := want[i].id
		if ver, ok := checkValue(v, uint64(id), scratch); !ok || ver != m.ver[id] || len(v) != int(m.vlen[id]) {
			bad++
		}
		i++
		return true
	})
	if err != nil {
		return bad, fmt.Errorf("scan: %w", err)
	}
	bad += int64(len(want) - i)
	for j := 0; j < len(want); j += 64 {
		id := want[j].id
		v, ok, err := kv.Get(want[j].key[:])
		if err != nil {
			return bad, fmt.Errorf("get: %w", err)
		}
		if ver, good := checkValue(v, uint64(id), scratch); !ok || !good || ver != m.ver[id] {
			bad++
		}
	}
	return bad, nil
}
