package sql

// Stmt is a parsed SQL statement.
type Stmt interface{ stmt() }

// ColType is a declared column type.
type ColType int

const (
	// TInteger is INTEGER/INT.
	TInteger ColType = iota
	// TText is TEXT.
	TText
	// TReal is REAL.
	TReal
	// TBlob is BLOB.
	TBlob
)

func (t ColType) String() string {
	switch t {
	case TInteger:
		return "INTEGER"
	case TText:
		return "TEXT"
	case TReal:
		return "REAL"
	default:
		return "BLOB"
	}
}

// ColDef is one column definition of CREATE TABLE.
type ColDef struct {
	Name       string
	Type       ColType
	PrimaryKey bool
	NotNull    bool
}

// CreateTable is CREATE TABLE [IF NOT EXISTS] name (cols…).
type CreateTable struct {
	Name        string
	Cols        []ColDef
	IfNotExists bool
}

// Insert is INSERT INTO name [(cols…)] VALUES (…), (…), ….
type Insert struct {
	Table string
	Cols  []string
	Rows  [][]Value
}

// Select is SELECT * | COUNT(*) | col, … FROM table [WHERE].
type Select struct {
	Table string
	Cols  []string // the named columns; nil selects every column
	Count bool     // SELECT COUNT(*)
	Where *Cond
}

// Update is UPDATE table SET col = literal, … [WHERE].
type Update struct {
	Table string
	Sets  []SetClause
	Where *Cond
}

// SetClause is one col = literal assignment.
type SetClause struct {
	Col string
	Val Value
}

// Delete is DELETE FROM table [WHERE].
type Delete struct {
	Table string
	Where *Cond
}

// Begin / Commit / Rollback are transaction-control statements.
type (
	Begin    struct{}
	Commit   struct{}
	Rollback struct{}
)

func (CreateTable) stmt() {}
func (Insert) stmt()      {}
func (Select) stmt()      {}
func (Update) stmt()      {}
func (Delete) stmt()      {}
func (Begin) stmt()       {}
func (Commit) stmt()      {}
func (Rollback) stmt()    {}

// Cond is the one WHERE form: col op literal, where op is one of
// = != < <= > >= (<> is read as !=).
type Cond struct {
	Col string
	Op  string
	Val Value
}
