package engine

import (
	"errors"
	"fmt"

	"fasp/internal/btree"
	"fasp/internal/pager"
	"fasp/internal/sql"
)

// ErrNoTxn reports COMMIT/ROLLBACK without a BEGIN.
var ErrNoTxn = errors.New("engine: no transaction is active")

// Result is the outcome of one statement.
type Result struct {
	// Columns names the result columns of a SELECT.
	Columns []string
	// Rows holds the result rows of a SELECT.
	Rows [][]sql.Value
	// RowsAffected counts rows changed by INSERT/UPDATE/DELETE.
	RowsAffected int
	// LastInsertID is the rowid assigned by the last INSERT.
	LastInsertID int64
}

// StatementOverheadNS models SQLite's parse + bytecode (VDBE) overhead per
// statement in simulated nanoseconds; Figures 11–12 include this path,
// Figures 6–9 do not. 10 µs approximates SQLite's prepare+step cost for a
// simple INSERT on the paper's era of hardware; see EXPERIMENTS.md for the
// calibration discussion.
const StatementOverheadNS = 10_000

// DB is a SQL database over a pager store. It is not safe for concurrent
// use; like SQLite in exclusive mode, one writer owns the database.
type DB struct {
	st       pager.Store
	tx       pager.Txn // open transaction (nil when idle)
	explicit bool      // tx was opened by BEGIN

	// Host-only working state that one statement after another reuses: the
	// catalog and table tree views with their descent-path buffers, the
	// table view's root reference, the catalog key buffer, and the decoded
	// schema of each table by catalog key (see executor.tableInfo).
	catView, tblView btree.Tx
	tblRoot          tableRootRef
	keyBuf           []byte
	schemas          map[string]*tableInfo
}

// Open attaches an engine to a (recovered) store.
func Open(st pager.Store) *DB {
	return &DB{st: st, schemas: make(map[string]*tableInfo)}
}

// Exec parses and executes a semicolon-separated batch, returning one
// Result per statement. On error, the failing statement's implicit
// transaction is rolled back; an explicit transaction is left open for the
// caller to ROLLBACK (as in SQLite).
func (db *DB) Exec(src string) ([]Result, error) {
	stmts, err := sql.Parse(src)
	if err != nil {
		return nil, err
	}
	var results []Result
	for _, stmt := range stmts {
		res, err := db.execStmt(stmt)
		if err != nil {
			return results, err
		}
		results = append(results, res)
	}
	return results, nil
}

// MustExec runs Exec and panics on error (for tests and examples).
func (db *DB) MustExec(src string) []Result {
	res, err := db.Exec(src)
	if err != nil {
		panic(err)
	}
	return res
}

// QueryRows runs a single SELECT and returns its rows. A batch of more than
// one statement is refused before any of it runs.
func (db *DB) QueryRows(src string) ([][]sql.Value, error) {
	stmt, err := sql.ParseOne(src)
	if err != nil {
		return nil, err
	}
	res, err := db.execStmt(stmt)
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// read runs f on the catalog inside the open transaction, or inside one of
// its own that it rolls back.
func (db *DB) read(f func(ex *executor, cat *btree.Tx) error) error {
	tx := db.tx
	if tx == nil {
		var err error
		if tx, err = db.st.Begin(); err != nil {
			return err
		}
		defer tx.Rollback()
	}
	ex := &executor{db: db, ptx: tx}
	return f(ex, ex.catalog())
}

// Tables lists the table names in the catalog, in name order.
func (db *DB) Tables() ([]string, error) {
	var names []string
	err := db.read(func(_ *executor, cat *btree.Tx) error {
		var rowErr error
		err := cat.Scan(nil, nil, func(k, v []byte) bool {
			_, createSQL, err := readCatalogRow(v)
			if err == nil {
				_, err = decodeTableInfo(string(k), string(createSQL))
			}
			if rowErr = err; rowErr != nil {
				return false
			}
			names = append(names, string(k))
			return true
		})
		if err != nil {
			return err
		}
		return rowErr
	})
	return names, err
}

// Schema returns a table's stored CREATE TABLE statement.
func (db *DB) Schema(table string) (string, error) {
	var createSQL string
	err := db.read(func(ex *executor, cat *btree.Tx) error {
		ti, err := ex.tableInfo(cat, table)
		if err == nil {
			createSQL = ti.createSQL
		}
		return err
	})
	return createSQL, err
}

// execStmt runs one statement, managing the implicit-transaction protocol.
func (db *DB) execStmt(stmt sql.Stmt) (res Result, err error) {
	// Charge the modelled SQL front-end overhead (parse + VDBE).
	db.st.Sys().ComputeNS(StatementOverheadNS)

	switch stmt.(type) {
	case sql.Begin:
		if db.tx != nil {
			return res, pager.ErrTxnActive
		}
		tx, err := db.st.Begin()
		if err != nil {
			return res, err
		}
		db.tx = tx
		db.explicit = true
		return res, nil
	case sql.Commit:
		if !db.explicit {
			return res, ErrNoTxn
		}
		tx := db.tx
		db.tx = nil
		db.explicit = false
		return res, tx.Commit()
	case sql.Rollback:
		if !db.explicit {
			return res, ErrNoTxn
		}
		db.tx.Rollback()
		db.tx = nil
		db.explicit = false
		return res, nil
	}

	// Data statement: use the explicit transaction or an implicit one.
	auto := false
	if db.tx == nil {
		tx, err := db.st.Begin()
		if err != nil {
			return res, err
		}
		db.tx = tx
		auto = true
	}
	res, err = db.runInTxn(stmt)
	if auto {
		tx := db.tx
		db.tx = nil
		if err != nil {
			tx.Rollback()
			return res, err
		}
		return res, tx.Commit()
	}
	return res, err
}

// runInTxn dispatches a data statement inside db.tx, converting execAbort
// panics (from errorless interfaces) back into errors.
func (db *DB) runInTxn(stmt sql.Stmt) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ab, ok := r.(execAbort); ok {
				err = ab.err
				return
			}
			panic(r)
		}
	}()
	ex := &executor{db: db, ptx: db.tx}
	switch s := stmt.(type) {
	case sql.CreateTable:
		return ex.createTable(s)
	case sql.Insert:
		return ex.insert(s)
	case sql.Select:
		return ex.selectStmt(s)
	case sql.Update:
		return ex.update(s)
	case sql.Delete:
		return ex.delete(s)
	default:
		return res, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

// executor runs one statement within one pager transaction.
type executor struct {
	db  *DB
	ptx pager.Txn
}

// catalog returns the tree view of the catalog (rooted at the store root).
func (ex *executor) catalog() *btree.Tx {
	return ex.db.catView.Attach(ex.db.st, ex.ptx, ex.ptx)
}

// table returns the tree view of a table's B-tree.
func (ex *executor) table(cat *btree.Tx, name string) *btree.Tx {
	r := &ex.db.tblRoot
	*r = tableRootRef{cat: cat, name: name, key: append(r.key[:0], ex.db.catalogKey(name)...)}
	return ex.db.tblView.Attach(ex.db.st, ex.ptx, r)
}
