package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"fasp/internal/btree"
	"fasp/internal/pager"
	"fasp/internal/sql"
)

// Engine-level errors.
var (
	ErrNoSuchTable  = errors.New("engine: no such table")
	ErrTableExists  = errors.New("engine: table already exists")
	ErrNoSuchColumn = errors.New("engine: no such column")
	ErrConstraint   = errors.New("engine: constraint violation")
)

// tableInfo is a decoded catalog entry.
type tableInfo struct {
	name      string
	createSQL string
	cols      []sql.ColDef
	pkCol     int // index of the INTEGER PRIMARY KEY column, -1 if none
}

func (ti *tableInfo) colIndex(name string) int {
	for i, c := range ti.cols {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Column references that colRef resolves to besides a column index.
const (
	colMissing = -1 // no such column
	colRowid   = -2 // the built-in rowid alias
)

// colRef resolves a column reference: the rowid alias, else the index of
// the named column, else colMissing.
func (ti *tableInfo) colRef(name string) int {
	if strings.EqualFold(name, "rowid") {
		return colRowid
	}
	return ti.colIndex(name)
}

// value reads column ci (or colRowid) of a row. The INTEGER PRIMARY KEY
// column reads the rowid: its value lives in the key, not the record.
func (ti *tableInfo) value(r *tableRow, ci int) sql.Value {
	if ci == colRowid || ci == ti.pkCol {
		return sql.Int(r.rowid)
	}
	if ci < len(r.vals) {
		return r.vals[ci]
	}
	return sql.Null()
}

// catalogKey returns the B-tree key of a table's catalog row, in a buffer
// the next call reuses.
func (db *DB) catalogKey(name string) []byte {
	db.keyBuf = append(db.keyBuf[:0], strings.ToLower(name)...)
	return db.keyBuf
}

// encodeCatalogRow builds the catalog record: [root page, CREATE TABLE sql].
func encodeCatalogRow(root uint32, createSQL string) []byte {
	return EncodeRecord([]sql.Value{sql.Int(int64(root)), sql.Text(createSQL)})
}

// readCatalogRow reads a catalog record in place: the root page and the
// CREATE TABLE text, which aliases rec. It accepts exactly what
// encodeCatalogRow writes, an integer then a text.
func readCatalogRow(rec []byte) (root uint32, createSQL []byte, err error) {
	hdrLen, n := binary.Uvarint(rec)
	if n <= 0 || hdrLen > uint64(len(rec)) || uint64(n) > hdrLen {
		return 0, nil, fmt.Errorf("%w: catalog row header", ErrBadRecord)
	}
	types, body := rec[n:hdrLen], rec[hdrLen:]
	t0, n0 := binary.Uvarint(types)
	if n0 <= 0 || t0 != serialInt {
		return 0, nil, fmt.Errorf("%w: catalog row root is not an integer", ErrBadRecord)
	}
	t1, n1 := binary.Uvarint(types[n0:])
	if n1 <= 0 || n0+n1 != len(types) || t1 < serialText0 || t1%2 == 0 {
		return 0, nil, fmt.Errorf("%w: catalog row is not [root, text]", ErrBadRecord)
	}
	if ln := (t1 - serialText0) / 2; uint64(len(body)) >= 8+ln {
		return uint32(binary.BigEndian.Uint64(body)), body[8 : 8+ln], nil
	}
	return 0, nil, fmt.Errorf("%w: truncated catalog row", ErrBadRecord)
}

// tableInfo reads a table's catalog row within the transaction and returns
// its decoded schema. The decoded form is host-only: the row is read as
// always, and the form cached for its catalog key is reused only while the
// row's CREATE TABLE text is the text it was parsed from. A rolled-back
// CREATE TABLE, a crash, a reopened store or an old index row all show in
// that text, so the cache needs no invalidation.
func (ex *executor) tableInfo(cat *btree.Tx, name string) (*tableInfo, error) {
	key := ex.db.catalogKey(name)
	rec, ok, err := cat.Get(key)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	_, createSQL, err := readCatalogRow(rec)
	if err != nil {
		return nil, err
	}
	if ti := ex.db.schemas[string(key)]; ti != nil && ti.createSQL == string(createSQL) {
		return ti, nil
	}
	ti, err := decodeTableInfo(name, string(createSQL))
	if err != nil {
		return nil, err
	}
	ex.db.schemas[string(key)] = ti
	return ti, nil
}

// decodeTableInfo parses the CREATE TABLE text of the catalog entry name.
// Text that is not a CREATE TABLE (an index an older image left behind)
// fails with the parser's error, which wraps sql.ErrUnsupported.
func decodeTableInfo(name, createSQL string) (*tableInfo, error) {
	stmt, err := sql.ParseOne(createSQL)
	if err != nil {
		return nil, fmt.Errorf("engine: catalog row for %s: %w", name, err)
	}
	ct, ok := stmt.(sql.CreateTable)
	if !ok {
		return nil, fmt.Errorf("engine: catalog row for %s holds a %T", name, stmt)
	}
	ti := &tableInfo{name: ct.Name, createSQL: createSQL, cols: ct.Cols, pkCol: -1}
	for i, c := range ct.Cols {
		if c.PrimaryKey && c.Type == sql.TInteger {
			ti.pkCol = i
			break
		}
	}
	return ti, nil
}

// tableRootRef stores a table's B-tree root pointer inside its catalog row,
// so root movements (splits of the table's root) commit atomically with the
// transaction that caused them.
type tableRootRef struct {
	cat    *btree.Tx
	name   string
	key    []byte // the catalog key of name
	cached uint32
	loaded bool
}

func (r *tableRootRef) Root() uint32 {
	if r.loaded {
		return r.cached
	}
	rec, ok, err := r.cat.Get(r.key)
	if err != nil || !ok {
		panic(execAbort{fmt.Errorf("%w: %s (root lookup: %v)", ErrNoSuchTable, r.name, err)})
	}
	root, _, err := readCatalogRow(rec)
	if err != nil {
		panic(execAbort{err})
	}
	r.cached = root
	r.loaded = true
	return root
}

func (r *tableRootRef) SetRoot(no uint32) {
	rec, ok, err := r.cat.Get(r.key)
	if err != nil || !ok {
		panic(execAbort{fmt.Errorf("%w: %s (root update: %v)", ErrNoSuchTable, r.name, err)})
	}
	_, createSQL, err := readCatalogRow(rec)
	if err != nil {
		panic(execAbort{err})
	}
	if err := r.cat.Update(r.key, encodeCatalogRow(no, string(createSQL))); err != nil {
		panic(execAbort{err})
	}
	r.cached = no
	r.loaded = true
}

// execAbort carries an error through SetRoot's errorless interface; the
// statement executor recovers it at its boundary.
type execAbort struct{ err error }

// catRootRef adapts the pager transaction's root pointer (which addresses
// the catalog tree) to btree.RootRef. It exists only for symmetry — the
// pager.Txn already satisfies RootRef.
var _ btree.RootRef = pager.Txn(nil)
