// Package sql provides the SQL front end of the engine: typed values, a
// lexer, an AST, and a recursive-descent parser for the dialect the paper's
// SQLite workloads use, and no more: CREATE TABLE, INSERT, SELECT * /
// COUNT(*) / columns FROM one table, UPDATE ... SET col = literal, DELETE,
// each with at most one WHERE col op literal, and BEGIN/COMMIT/ROLLBACK.
// Every other form fails with an error wrapping ErrUnsupported.
package sql

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind enumerates SQLite's fundamental value types.
type Kind int

const (
	// KindNull is the SQL NULL.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindReal is a 64-bit float.
	KindReal
	// KindText is a string.
	KindText
	// KindBlob is a byte string.
	KindBlob
)

// Value is one SQL value.
type Value struct {
	kind Kind
	i    int64
	r    float64
	s    string
	b    []byte
}

// Null returns the NULL value.
func Null() Value { return Value{kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Real returns a float value.
func Real(v float64) Value { return Value{kind: KindReal, r: v} }

// Text returns a string value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Blob returns a byte-string value.
func Blob(v []byte) Value { return Value{kind: KindBlob, b: v} }

// Kind reports the value's type.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsInt returns the value as an integer (coercing reals and numeric text).
func (v Value) AsInt() int64 {
	switch v.kind {
	case KindInt:
		return v.i
	case KindReal:
		return int64(v.r)
	case KindText:
		n, _ := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		return n
	default:
		return 0
	}
}

// AsReal returns the value as a float.
func (v Value) AsReal() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindReal:
		return v.r
	case KindText:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f
	default:
		return 0
	}
}

// AsText renders the value as a string.
func (v Value) AsText() string {
	switch v.kind {
	case KindNull:
		return ""
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindReal:
		return strconv.FormatFloat(v.r, 'g', -1, 64)
	case KindText:
		return v.s
	default:
		return string(v.b)
	}
}

// AsBlob returns the value's bytes.
func (v Value) AsBlob() []byte {
	if v.kind == KindBlob {
		return v.b
	}
	return []byte(v.AsText())
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindText:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBlob:
		return fmt.Sprintf("x'%x'", v.b)
	default:
		return v.AsText()
	}
}

// Compare orders two values using SQLite's cross-type ordering: NULL <
// numbers < text < blob; numbers compare numerically across Int/Real.
func Compare(a, b Value) int {
	ra, rb := typeRank(a.kind), typeRank(b.kind)
	if ra != rb {
		if ra < rb {
			return -1
		}
		return 1
	}
	switch ra {
	case 0: // both NULL
		return 0
	case 1: // numeric
		fa, fb := a.AsReal(), b.AsReal()
		if a.kind == KindInt && b.kind == KindInt {
			switch {
			case a.i < b.i:
				return -1
			case a.i > b.i:
				return 1
			}
			return 0
		}
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	case 2:
		return strings.Compare(a.s, b.s)
	default:
		return strings.Compare(string(a.b), string(b.b))
	}
}

func typeRank(k Kind) int {
	switch k {
	case KindNull:
		return 0
	case KindInt, KindReal:
		return 1
	case KindText:
		return 2
	default:
		return 3
	}
}
