package engine

import (
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

// catalogKey is the B-tree key of a table's catalog row.
func catalogKey(name string) []byte { return []byte(strings.ToLower(name)) }

// encodeCatalogRow builds the catalog record: [root page, CREATE TABLE sql].
func encodeCatalogRow(root uint32, createSQL string) []byte {
	return EncodeRecord([]sql.Value{sql.Int(int64(root)), sql.Text(createSQL)})
}

func decodeCatalogRow(rec []byte) (root uint32, createSQL string, err error) {
	vals, err := DecodeRecord(rec)
	if err != nil {
		return 0, "", err
	}
	if len(vals) != 2 {
		return 0, "", fmt.Errorf("%w: catalog row has %d fields", ErrBadRecord, len(vals))
	}
	return uint32(vals[0].AsInt()), vals[1].AsText(), nil
}

// loadTableInfo reads and parses a table's catalog entry within a txn.
func loadTableInfo(cat *btree.Tx, name string) (*tableInfo, error) {
	rec, ok, err := cat.Get(catalogKey(name))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTable, name)
	}
	return decodeTableInfo(name, rec)
}

// decodeTableInfo parses the catalog row rec of the entry name. A row whose
// statement is not a CREATE TABLE (an index an older image left behind)
// fails with the parser's error, which wraps sql.ErrUnsupported.
func decodeTableInfo(name string, rec []byte) (*tableInfo, error) {
	_, createSQL, err := decodeCatalogRow(rec)
	if err != nil {
		return nil, err
	}
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
	cached uint32
	loaded bool
}

func (r *tableRootRef) Root() uint32 {
	if r.loaded {
		return r.cached
	}
	rec, ok, err := r.cat.Get(catalogKey(r.name))
	if err != nil || !ok {
		panic(execAbort{fmt.Errorf("%w: %s (root lookup: %v)", ErrNoSuchTable, r.name, err)})
	}
	root, _, err := decodeCatalogRow(rec)
	if err != nil {
		panic(execAbort{err})
	}
	r.cached = root
	r.loaded = true
	return root
}

func (r *tableRootRef) SetRoot(no uint32) {
	rec, ok, err := r.cat.Get(catalogKey(r.name))
	if err != nil || !ok {
		panic(execAbort{fmt.Errorf("%w: %s (root update: %v)", ErrNoSuchTable, r.name, err)})
	}
	_, createSQL, err := decodeCatalogRow(rec)
	if err != nil {
		panic(execAbort{err})
	}
	if err := r.cat.Update(catalogKey(r.name), encodeCatalogRow(no, createSQL)); err != nil {
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
