// Package engine is a miniature SQLite-like relational engine over the
// B-tree: a catalog, SQLite's record serialisation format, and execution of
// the parsed SQL statements. It provides the "full-featured DBMS" context
// the paper evaluates in (SQL parsing and statement execution included in
// Figures 11–12; pager and B-tree time isolated in Figures 6–9).
//
// Each table is one B-tree keyed by the 8-byte big-endian rowid; the
// catalog is a B-tree keyed by table name whose rows carry the table's root
// page and its CREATE TABLE text. Table root pointers therefore live in
// catalog rows and move transactionally with everything else.
package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"fasp/internal/sql"
)

// ErrBadRecord reports an undecodable record image.
var ErrBadRecord = errors.New("engine: bad record")

// Serial types, following SQLite's record format: 0 NULL, 6 int64,
// 7 float64, even ≥12 blob of (n-12)/2 bytes, odd ≥13 text of (n-13)/2.
const (
	serialNull  = 0
	serialInt   = 6
	serialReal  = 7
	serialBlob0 = 12
	serialText0 = 13
)

// EncodeRecord serialises values as a SQLite-style record: a varint header
// length, a varint serial type per value, then the value bodies.
func EncodeRecord(vals []sql.Value) []byte {
	typesLen, bodyLen := 0, 0
	for _, v := range vals {
		t, n := serialType(v)
		typesLen += uvarintLen(t)
		bodyLen += n
	}
	// Header length includes its own varint, like SQLite; sizing the
	// varint of (len + its own size) converges within two rounds here.
	hdrLen := typesLen + 1
	if hdrLen+1 >= 0x80 {
		hdrLen = typesLen + uvarintLen(uint64(typesLen+2))
	}
	out := make([]byte, 0, hdrLen+bodyLen)
	out = binary.AppendUvarint(out, uint64(hdrLen))
	for _, v := range vals {
		t, _ := serialType(v)
		out = binary.AppendUvarint(out, t)
	}
	for _, v := range vals {
		switch v.Kind() {
		case sql.KindInt:
			out = binary.BigEndian.AppendUint64(out, uint64(v.AsInt()))
		case sql.KindReal:
			out = binary.BigEndian.AppendUint64(out, math.Float64bits(v.AsReal()))
		case sql.KindBlob:
			out = append(out, v.AsBlob()...)
		case sql.KindText:
			out = append(out, v.AsText()...)
		}
	}
	return out
}

// serialType returns v's serial type and the length of its body.
func serialType(v sql.Value) (t uint64, bodyLen int) {
	switch v.Kind() {
	case sql.KindNull:
		return serialNull, 0
	case sql.KindInt:
		return serialInt, 8
	case sql.KindReal:
		return serialReal, 8
	case sql.KindBlob:
		n := len(v.AsBlob())
		return uint64(serialBlob0 + 2*n), n
	default:
		n := len(v.AsText())
		return uint64(serialText0 + 2*n), n
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// DecodeRecord parses a record image back into values.
func DecodeRecord(b []byte) ([]sql.Value, error) {
	hdrLen, n := binary.Uvarint(b)
	if n <= 0 || hdrLen > uint64(len(b)) || uint64(n) > hdrLen {
		return nil, fmt.Errorf("%w: header length", ErrBadRecord)
	}
	types := b[n:hdrLen]
	body := b[hdrLen:]
	vals := make([]sql.Value, 0, len(types)) // a serial type is at least one byte
	for len(types) > 0 {
		t, tn := binary.Uvarint(types)
		if tn <= 0 {
			return nil, fmt.Errorf("%w: serial type varint", ErrBadRecord)
		}
		types = types[tn:]
		switch {
		case t == serialNull:
			vals = append(vals, sql.Null())
		case t == serialInt:
			if len(body) < 8 {
				return nil, fmt.Errorf("%w: truncated int", ErrBadRecord)
			}
			vals = append(vals, sql.Int(int64(binary.BigEndian.Uint64(body))))
			body = body[8:]
		case t == serialReal:
			if len(body) < 8 {
				return nil, fmt.Errorf("%w: truncated real", ErrBadRecord)
			}
			vals = append(vals, sql.Real(math.Float64frombits(binary.BigEndian.Uint64(body))))
			body = body[8:]
		case t >= serialBlob0 && t%2 == 0:
			ln := int((t - serialBlob0) / 2)
			if len(body) < ln {
				return nil, fmt.Errorf("%w: truncated blob", ErrBadRecord)
			}
			vals = append(vals, sql.Blob(append([]byte(nil), body[:ln]...)))
			body = body[ln:]
		case t >= serialText0:
			ln := int((t - serialText0) / 2)
			if len(body) < ln {
				return nil, fmt.Errorf("%w: truncated text", ErrBadRecord)
			}
			vals = append(vals, sql.Text(string(body[:ln])))
			body = body[ln:]
		default:
			return nil, fmt.Errorf("%w: serial type %d", ErrBadRecord, t)
		}
	}
	return vals, nil
}

// RowidKey encodes a rowid as the big-endian B-tree key, preserving order
// for non-negative rowids.
func RowidKey(rowid int64) []byte {
	var k [8]byte
	binary.BigEndian.PutUint64(k[:], uint64(rowid))
	return k[:]
}

// KeyRowid decodes a B-tree key back to a rowid.
func KeyRowid(k []byte) int64 {
	if len(k) != 8 {
		return 0
	}
	return int64(binary.BigEndian.Uint64(k))
}
