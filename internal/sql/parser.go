package sql

import (
	"errors"
	"fmt"
	"strconv"
)

// ErrUnsupported marks a statement form outside the dialect: the parser
// refuses it with an error that wraps ErrUnsupported and names the
// construct, e.g. "sql: unsupported: CREATE INDEX".
var ErrUnsupported = errors.New("sql: unsupported")

// removed maps each keyword that starts a refused construct to the name the
// error gives it.
var removed = map[string]string{
	"DROP": "DROP", "INDEX": "INDEX", "UNIQUE": "UNIQUE", "VACUUM": "VACUUM",
	"DISTINCT": "DISTINCT", "AS": "AS", "GROUP": "GROUP BY", "HAVING": "HAVING",
	"ORDER": "ORDER BY", "LIMIT": "LIMIT", "OFFSET": "OFFSET",
	"AND": "AND", "OR": "OR", "NOT": "NOT", "IS": "IS",
	"LIKE": "LIKE", "IN": "IN", "BETWEEN": "BETWEEN",
}

func unsupported(construct string) error {
	return fmt.Errorf("%w: %s", ErrUnsupported, construct)
}

// Parse parses a semicolon-separated sequence of statements.
func Parse(src string) ([]Stmt, error) {
	toks, err := Lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var stmts []Stmt
	for {
		for p.acceptOp(";") {
		}
		if p.peek().Kind == TokEOF {
			return stmts, nil
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		stmts = append(stmts, s)
		if !p.acceptOp(";") && p.peek().Kind != TokEOF {
			return nil, p.fail("expected ';' or end of input")
		}
	}
}

// ParseOne parses exactly one statement.
func ParseOne(src string) (Stmt, error) {
	stmts, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) peek() Token { return p.toks[p.pos] }

// peekAt returns the token n places ahead (EOF past the end).
func (p *parser) peekAt(n int) Token { return p.toks[min(p.pos+n, len(p.toks)-1)] }

// isOp reports whether t is the operator or punctuation op.
func isOp(t Token, op string) bool { return t.Kind == TokOp && t.Text == op }

// callAhead reports whether the token after the current one opens an
// argument list, making the current one a function name.
func (p *parser) callAhead() bool { return isOp(p.peekAt(1), "(") }

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("sql: %s (near position %d)", fmt.Sprintf(format, args...), p.peek().Pos)
}

// fail reports a parse error at the current token: ErrUnsupported when the
// token starts a refused construct, a syntax error otherwise.
func (p *parser) fail(format string, args ...any) error {
	t := p.peek()
	switch {
	case t.Kind == TokKeyword && removed[t.Text] != "":
		return unsupported(removed[t.Text])
	case t.Kind == TokOp && (t.Text == "+" || t.Text == "-" || t.Text == "*" ||
		t.Text == "/" || t.Text == "%" || t.Text == "||"):
		return unsupported("operator " + t.Text)
	case (t.Kind == TokIdent || t.Kind == TokKeyword && t.Text == "COUNT") && p.callAhead():
		return unsupported("function call " + t.Text)
	}
	return p.errf(format, args...)
}

func (p *parser) acceptKw(kw string) bool {
	if t := p.peek(); t.Kind == TokKeyword && t.Text == kw {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectKw(kw string) error {
	if !p.acceptKw(kw) {
		return p.fail("expected %s", kw)
	}
	return nil
}

func (p *parser) acceptOp(op string) bool {
	if t := p.peek(); t.Kind == TokOp && t.Text == op {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectOp(op string) error {
	if !p.acceptOp(op) {
		return p.fail("expected %q", op)
	}
	return nil
}

// isName reports whether t can name a table or column: an identifier or
// one of the keywords that may also be a name.
func isName(t Token) bool {
	return t.Kind == TokIdent || t.Kind == TokKeyword && (t.Text == "KEY" || t.Text == "COUNT")
}

// ident accepts a name.
func (p *parser) ident() (string, error) {
	if t := p.peek(); isName(t) {
		p.pos++
		return t.Text, nil
	}
	return "", p.errf("expected identifier, got %q", p.peek().Text)
}

// column accepts a column reference where the select list or a WHERE
// clause needs one; ctx names the refused construct if a literal is there.
func (p *parser) column(ctx string) (string, error) {
	switch t := p.peek(); {
	case isName(t) && !p.callAhead():
		return p.ident()
	case t.Kind == TokInt || t.Kind == TokFloat || t.Kind == TokString || t.Kind == TokBlob ||
		(t.Kind == TokKeyword && t.Text == "NULL"):
		return "", unsupported(ctx)
	case isOp(t, "("):
		return "", unsupported("parenthesised expression")
	}
	return "", p.fail("expected column")
}

// literal accepts a constant: a number (optionally signed), a 'string', an
// x'blob' or NULL.
func (p *parser) literal() (Value, error) {
	t := p.peek()
	sign := ""
	if isOp(t, "-") || isOp(t, "+") {
		if n := p.peekAt(1); n.Kind != TokInt && n.Kind != TokFloat {
			return Value{}, unsupported("unary " + t.Text)
		}
		sign = t.Text
		p.pos++
		t = p.peek()
	}
	switch {
	case t.Kind == TokInt:
		n, err := strconv.ParseInt(sign+t.Text, 10, 64)
		if err != nil {
			return Value{}, p.errf("bad integer %q", t.Text)
		}
		p.pos++
		return Int(n), nil
	case t.Kind == TokFloat:
		f, err := strconv.ParseFloat(sign+t.Text, 64)
		if err != nil {
			return Value{}, p.errf("bad float %q", t.Text)
		}
		p.pos++
		return Real(f), nil
	case t.Kind == TokString:
		p.pos++
		return Text(t.Text), nil
	case t.Kind == TokBlob:
		p.pos++
		return Blob(t.Blob), nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.pos++
		return Null(), nil
	case t.Kind == TokIdent && !p.callAhead():
		return Value{}, unsupported("column reference as a value")
	case isOp(t, "("):
		return Value{}, unsupported("parenthesised expression")
	}
	return Value{}, p.fail("expected a literal")
}

func (p *parser) statement() (Stmt, error) {
	t := p.peek()
	if t.Kind != TokKeyword {
		return nil, p.errf("expected statement keyword, got %q", t.Text)
	}
	switch t.Text {
	case "CREATE":
		return p.createTable()
	case "DROP":
		if n := p.peekAt(1); n.Kind == TokKeyword && (n.Text == "TABLE" || n.Text == "INDEX") {
			return nil, unsupported("DROP " + n.Text)
		}
	case "INSERT":
		return p.insert()
	case "SELECT":
		return p.selectStmt()
	case "UPDATE":
		return p.update()
	case "DELETE":
		return p.delete()
	case "BEGIN":
		p.pos++
		p.acceptKw("TRANSACTION")
		return Begin{}, nil
	case "COMMIT":
		p.pos++
		p.acceptKw("TRANSACTION")
		return Commit{}, nil
	case "ROLLBACK":
		p.pos++
		p.acceptKw("TRANSACTION")
		return Rollback{}, nil
	}
	return nil, p.fail("expected a statement, got %s", t.Text)
}

func (p *parser) createTable() (Stmt, error) {
	p.pos++ // CREATE
	if t := p.peek(); t.Kind == TokKeyword && (t.Text == "INDEX" || t.Text == "UNIQUE") {
		return nil, unsupported("CREATE INDEX")
	}
	if err := p.expectKw("TABLE"); err != nil {
		return nil, err
	}
	stmt := CreateTable{}
	if p.acceptKw("IF") {
		if err := p.expectKw("NOT"); err != nil {
			return nil, err
		}
		if err := p.expectKw("EXISTS"); err != nil {
			return nil, err
		}
		stmt.IfNotExists = true
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Name = name
	if err := p.expectOp("("); err != nil {
		return nil, err
	}
	for {
		col, err := p.colDef()
		if err != nil {
			return nil, err
		}
		stmt.Cols = append(stmt.Cols, col)
		if !p.acceptOp(",") {
			break
		}
	}
	if err := p.expectOp(")"); err != nil {
		return nil, err
	}
	return stmt, nil
}

func (p *parser) colDef() (ColDef, error) {
	var c ColDef
	name, err := p.ident()
	if err != nil {
		return c, err
	}
	c.Name = name
	t := p.peek()
	if t.Kind == TokKeyword {
		switch t.Text {
		case "INTEGER", "INT":
			c.Type = TInteger
			p.pos++
		case "TEXT":
			c.Type = TText
			p.pos++
		case "REAL":
			c.Type = TReal
			p.pos++
		case "BLOB":
			c.Type = TBlob
			p.pos++
		}
	}
	for {
		switch {
		case p.acceptKw("PRIMARY"):
			if err := p.expectKw("KEY"); err != nil {
				return c, err
			}
			c.PrimaryKey = true
		case p.acceptKw("NOT"):
			if err := p.expectKw("NULL"); err != nil {
				return c, err
			}
			c.NotNull = true
		default:
			return c, nil
		}
	}
}

func (p *parser) insert() (Stmt, error) {
	p.pos++ // INSERT
	if err := p.expectKw("INTO"); err != nil {
		return nil, err
	}
	stmt := Insert{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if p.acceptOp("(") {
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("VALUES"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectOp("("); err != nil {
			return nil, err
		}
		var row []Value
		for {
			v, err := p.literal()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.acceptOp(",") {
				break
			}
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Rows = append(stmt.Rows, row)
		if !p.acceptOp(",") {
			break
		}
	}
	return stmt, nil
}

func (p *parser) selectStmt() (Stmt, error) {
	p.pos++ // SELECT
	stmt := Select{}
	switch {
	case p.acceptOp("*"):
	case p.peek().Kind == TokKeyword && p.peek().Text == "COUNT" && p.callAhead():
		p.pos += 2
		if !p.acceptOp("*") {
			return nil, unsupported("COUNT of an expression")
		}
		if err := p.expectOp(")"); err != nil {
			return nil, err
		}
		stmt.Count = true
	default:
		for {
			col, err := p.column("SELECT of an expression")
			if err != nil {
				return nil, err
			}
			stmt.Cols = append(stmt.Cols, col)
			if !p.acceptOp(",") {
				break
			}
		}
	}
	if t := p.peek(); t.Kind == TokEOF || isOp(t, ";") {
		return nil, unsupported("SELECT without FROM")
	}
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	stmt.Where, err = p.where()
	return stmt, err
}

// where parses an optional WHERE col op literal.
func (p *parser) where() (*Cond, error) {
	if !p.acceptKw("WHERE") {
		return nil, nil
	}
	col, err := p.column("WHERE on an expression")
	if err != nil {
		return nil, err
	}
	c := &Cond{Col: col}
	switch t := p.peek(); {
	case t.Kind == TokOp && (t.Text == "=" || t.Text == "!=" || t.Text == "<" ||
		t.Text == "<=" || t.Text == ">" || t.Text == ">="):
		c.Op = t.Text
	case isOp(t, "<>"):
		c.Op = "!="
	default:
		return nil, p.fail("expected a comparison operator")
	}
	p.pos++
	if c.Val, err = p.literal(); err != nil {
		return nil, err
	}
	return c, nil
}

func (p *parser) update() (Stmt, error) {
	p.pos++ // UPDATE
	stmt := Update{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	if err := p.expectKw("SET"); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp("="); err != nil {
			return nil, err
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		stmt.Sets = append(stmt.Sets, SetClause{Col: col, Val: v})
		if !p.acceptOp(",") {
			break
		}
	}
	stmt.Where, err = p.where()
	return stmt, err
}

func (p *parser) delete() (Stmt, error) {
	p.pos++ // DELETE
	if err := p.expectKw("FROM"); err != nil {
		return nil, err
	}
	stmt := Delete{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	stmt.Table = name
	stmt.Where, err = p.where()
	return stmt, err
}
