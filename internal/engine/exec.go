package engine

import (
	"errors"
	"fmt"
	"strings"

	"fasp/internal/btree"
	"fasp/internal/slotted"
	"fasp/internal/sql"
)

// --- DDL ---------------------------------------------------------------------

func (ex *executor) createTable(s sql.CreateTable) (Result, error) {
	var res Result
	cat := ex.catalog()
	if _, ok, err := cat.Get(ex.db.catalogKey(s.Name)); err != nil {
		return res, err
	} else if ok {
		if s.IfNotExists {
			return res, nil
		}
		return res, fmt.Errorf("%w: %s", ErrTableExists, s.Name)
	}
	pkSeen := false
	for _, c := range s.Cols {
		if c.PrimaryKey {
			if pkSeen {
				return res, fmt.Errorf("%w: multiple primary keys", ErrConstraint)
			}
			pkSeen = true
		}
	}
	createSQL := renderCreateSQL(s)
	if err := cat.Insert(ex.db.catalogKey(s.Name), encodeCatalogRow(0, createSQL)); err != nil {
		return res, err
	}
	return res, nil
}

// renderCreateSQL normalises the statement for catalog storage.
func renderCreateSQL(s sql.CreateTable) string {
	var sb strings.Builder
	sb.WriteString("CREATE TABLE ")
	sb.WriteString(s.Name)
	sb.WriteString(" (")
	for i, c := range s.Cols {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(c.Name)
		sb.WriteByte(' ')
		sb.WriteString(c.Type.String())
		if c.PrimaryKey {
			sb.WriteString(" PRIMARY KEY")
		}
		if c.NotNull {
			sb.WriteString(" NOT NULL")
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// --- DML ---------------------------------------------------------------------

func (ex *executor) insert(s sql.Insert) (Result, error) {
	var res Result
	cat := ex.catalog()
	ti, err := ex.tableInfo(cat, s.Table)
	if err != nil {
		return res, err
	}
	// Map statement columns to table columns.
	colMap := make([]int, len(ti.cols))
	if len(s.Cols) == 0 {
		for i := range colMap {
			colMap[i] = i
		}
	} else {
		for i := range colMap {
			colMap[i] = -1
		}
		for vi, name := range s.Cols {
			ci := ti.colIndex(name)
			if ci < 0 {
				return res, fmt.Errorf("%w: %s", ErrNoSuchColumn, name)
			}
			colMap[ci] = vi
		}
	}
	tbl := ex.table(cat, s.Table)
	for _, row := range s.Rows {
		want := len(ti.cols)
		if len(s.Cols) > 0 {
			want = len(s.Cols)
		}
		if len(row) != want {
			return res, fmt.Errorf("%w: %d values for %d columns", ErrConstraint, len(row), want)
		}
		vals := make([]sql.Value, len(ti.cols))
		for ci := range ti.cols {
			if vi := colMap[ci]; vi >= 0 {
				vals[ci] = applyAffinity(row[vi], ti.cols[ci].Type)
			} else {
				vals[ci] = sql.Null()
			}
		}
		// Determine the rowid.
		var rowid int64
		if ti.pkCol >= 0 && !vals[ti.pkCol].IsNull() {
			rowid = vals[ti.pkCol].AsInt()
		} else {
			maxK, ok, err := tbl.MaxKey()
			if err != nil {
				return res, err
			}
			if ok {
				rowid = KeyRowid(maxK) + 1
			} else {
				rowid = 1
			}
		}
		// Constraint checks.
		for ci, c := range ti.cols {
			if c.NotNull && ci != ti.pkCol && vals[ci].IsNull() {
				return res, fmt.Errorf("%w: %s.%s may not be NULL", ErrConstraint, ti.name, c.Name)
			}
		}
		// The INTEGER PRIMARY KEY lives in the key, not the record body.
		if ti.pkCol >= 0 {
			vals[ti.pkCol] = sql.Null()
		}
		err := tbl.Insert(RowidKey(rowid), EncodeRecord(vals))
		if errors.Is(err, slotted.ErrDuplicate) {
			return res, fmt.Errorf("%w: duplicate rowid %d in %s", ErrConstraint, rowid, ti.name)
		}
		if err != nil {
			return res, err
		}
		res.RowsAffected++
		res.LastInsertID = rowid
	}
	return res, nil
}

// tableRow is one decoded row during scans.
type tableRow struct {
	rowid int64
	vals  []sql.Value
}

// scanWhere collects the rows matching where (nil: every row): one point
// lookup when it names a rowid, SQLite's fast path for key lookups, and a
// full scan in rowid order otherwise.
func (ex *executor) scanWhere(tbl *btree.Tx, ti *tableInfo, where *sql.Cond) ([]tableRow, error) {
	var col int
	if where != nil {
		if col = ti.colRef(where.Col); col == colMissing {
			return nil, fmt.Errorf("%w: %s", ErrNoSuchColumn, where.Col)
		}
		if (col == colRowid || col == ti.pkCol) && where.Op == "=" && where.Val.Kind() == sql.KindInt {
			rowid := where.Val.AsInt()
			rec, found, err := tbl.Get(RowidKey(rowid))
			if err != nil || !found {
				return nil, err
			}
			vals, err := DecodeRecord(rec)
			if err != nil {
				return nil, err
			}
			return []tableRow{{rowid: rowid, vals: vals}}, nil
		}
	}
	var rows []tableRow
	var scanErr error
	err := tbl.Scan(nil, nil, func(k, v []byte) bool {
		vals, err := DecodeRecord(v)
		if err != nil {
			scanErr = err
			return false
		}
		r := tableRow{rowid: KeyRowid(k), vals: vals}
		if where == nil || matches(ti.value(&r, col), where) {
			rows = append(rows, r)
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return rows, scanErr
}

// matches applies the comparison where to v. A comparison with NULL on
// either side matches nothing, as in SQL.
func matches(v sql.Value, where *sql.Cond) bool {
	if v.IsNull() || where.Val.IsNull() {
		return false
	}
	c := sql.Compare(v, where.Val)
	switch where.Op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}

func (ex *executor) selectStmt(s sql.Select) (Result, error) {
	var res Result
	cat := ex.catalog()
	ti, err := ex.tableInfo(cat, s.Table)
	if err != nil {
		return res, err
	}
	// Resolve the projection before the scan.
	var cols []int
	switch {
	case s.Count:
		res.Columns = []string{"COUNT(*)"}
	case s.Cols == nil:
		for ci, c := range ti.cols {
			cols = append(cols, ci)
			res.Columns = append(res.Columns, c.Name)
		}
	default:
		for _, name := range s.Cols {
			ci := ti.colRef(name)
			if ci == colMissing {
				return res, fmt.Errorf("%w: %s", ErrNoSuchColumn, name)
			}
			cols = append(cols, ci)
			res.Columns = append(res.Columns, name)
		}
	}
	rows, err := ex.scanWhere(ex.table(cat, s.Table), ti, s.Where)
	if err != nil {
		return res, err
	}
	if s.Count {
		res.Rows = [][]sql.Value{{sql.Int(int64(len(rows)))}}
		return res, nil
	}
	for i := range rows {
		out := make([]sql.Value, len(cols))
		for j, ci := range cols {
			out[j] = ti.value(&rows[i], ci)
		}
		res.Rows = append(res.Rows, out)
	}
	return res, nil
}

func (ex *executor) update(s sql.Update) (Result, error) {
	var res Result
	cat := ex.catalog()
	ti, err := ex.tableInfo(cat, s.Table)
	if err != nil {
		return res, err
	}
	// The new values are literals, the same for every row.
	setCols := make([]int, len(s.Sets))
	setVals := make([]sql.Value, len(s.Sets))
	for i, set := range s.Sets {
		ci := ti.colIndex(set.Col)
		if ci < 0 {
			return res, fmt.Errorf("%w: %s", ErrNoSuchColumn, set.Col)
		}
		setCols[i], setVals[i] = ci, applyAffinity(set.Val, ti.cols[ci].Type)
	}
	tbl := ex.table(cat, s.Table)
	rows, err := ex.scanWhere(tbl, ti, s.Where)
	if err != nil {
		return res, err
	}
	for i := range rows {
		r := &rows[i]
		newVals := append([]sql.Value(nil), r.vals...)
		newRowid := r.rowid
		for si, ci := range setCols {
			v := setVals[si]
			if ci == ti.pkCol {
				if v.IsNull() {
					return res, fmt.Errorf("%w: primary key may not be NULL", ErrConstraint)
				}
				newRowid = v.AsInt()
				continue
			}
			if ti.cols[ci].NotNull && v.IsNull() {
				return res, fmt.Errorf("%w: %s may not be NULL", ErrConstraint, s.Sets[si].Col)
			}
			newVals[ci] = v
		}
		if ti.pkCol >= 0 {
			newVals[ti.pkCol] = sql.Null()
		}
		rec := EncodeRecord(newVals)
		if newRowid != r.rowid {
			if err := tbl.Delete(RowidKey(r.rowid)); err != nil {
				return res, err
			}
			if err := tbl.Insert(RowidKey(newRowid), rec); err != nil {
				if errors.Is(err, slotted.ErrDuplicate) {
					return res, fmt.Errorf("%w: duplicate rowid %d", ErrConstraint, newRowid)
				}
				return res, err
			}
		} else if err := tbl.Update(RowidKey(r.rowid), rec); err != nil {
			return res, err
		}
		res.RowsAffected++
	}
	return res, nil
}

func (ex *executor) delete(s sql.Delete) (Result, error) {
	var res Result
	cat := ex.catalog()
	ti, err := ex.tableInfo(cat, s.Table)
	if err != nil {
		return res, err
	}
	tbl := ex.table(cat, s.Table)
	rows, err := ex.scanWhere(tbl, ti, s.Where)
	if err != nil {
		return res, err
	}
	for i := range rows {
		if err := tbl.Delete(RowidKey(rows[i].rowid)); err != nil {
			return res, err
		}
		res.RowsAffected++
	}
	return res, nil
}

// applyAffinity coerces a value to a column's declared type when lossless,
// following SQLite's affinity rules loosely.
func applyAffinity(v sql.Value, t sql.ColType) sql.Value {
	if v.IsNull() {
		return v
	}
	switch t {
	case sql.TInteger:
		if v.Kind() == sql.KindReal && v.AsReal() == float64(int64(v.AsReal())) {
			return sql.Int(v.AsInt())
		}
		if v.Kind() == sql.KindText {
			if iv := sql.Text(v.AsText()); iv.AsText() == fmt.Sprint(iv.AsInt()) {
				return sql.Int(iv.AsInt())
			}
		}
	case sql.TReal:
		if v.Kind() == sql.KindInt {
			return sql.Real(v.AsReal())
		}
	}
	return v
}
