package fast

import "fasp/internal/slotted"

// DropHeaderCache empties st's table of decoded committed headers, as
// Recover does, so that the next open of every page decodes it from PM.
func DropHeaderCache(st *Store) { st.dropHeaders() }

// CachedHeaders returns a copy of every decoded committed header st's page
// table holds, by page number.
func CachedHeaders(st *Store) map[uint32]slotted.Header {
	out := map[uint32]slotted.Header{}
	for no, e := range st.tab {
		if e.cached {
			out[uint32(no)] = e.hdr.Clone()
		}
	}
	return out
}
