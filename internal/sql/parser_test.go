package sql

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func parseOne(t *testing.T, src string) Stmt {
	t.Helper()
	s, err := ParseOne(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return s
}

func TestParseCreateTable(t *testing.T) {
	s := parseOne(t, `CREATE TABLE IF NOT EXISTS users (
		id INTEGER PRIMARY KEY, name TEXT NOT NULL, score REAL, pic BLOB)`)
	ct, ok := s.(CreateTable)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ct.Name != "users" || !ct.IfNotExists || len(ct.Cols) != 4 {
		t.Fatalf("parsed %+v", ct)
	}
	if !ct.Cols[0].PrimaryKey || ct.Cols[0].Type != TInteger {
		t.Fatalf("col0 = %+v", ct.Cols[0])
	}
	if !ct.Cols[1].NotNull || ct.Cols[1].Type != TText {
		t.Fatalf("col1 = %+v", ct.Cols[1])
	}
}

func TestParseInsert(t *testing.T) {
	s := parseOne(t, `INSERT INTO t (a, b) VALUES (1, 'x''y'), (-2.5, x'CAFE'), (+3, NULL)`)
	ins := s.(Insert)
	if ins.Table != "t" || len(ins.Cols) != 2 || len(ins.Rows) != 3 {
		t.Fatalf("parsed %+v", ins)
	}
	if v := ins.Rows[0][1]; v.AsText() != "x'y" {
		t.Fatalf("string literal = %v", v)
	}
	if v := ins.Rows[1][0]; v.Kind() != KindReal || v.AsReal() != -2.5 {
		t.Fatalf("signed real literal = %v", v)
	}
	if v := ins.Rows[1][1]; string(v.AsBlob()) != "\xca\xfe" {
		t.Fatalf("blob literal = %v", v)
	}
	if v := ins.Rows[2][0]; v.Kind() != KindInt || v.AsInt() != 3 || !ins.Rows[2][1].IsNull() {
		t.Fatalf("row 2 = %v", ins.Rows[2])
	}
	// The most negative integer parses with its sign.
	s = parseOne(t, `INSERT INTO t VALUES (-9223372036854775808)`)
	if v := s.(Insert).Rows[0][0]; v.AsInt() != -9223372036854775808 {
		t.Fatalf("min int = %v", v)
	}
}

func TestParseSelect(t *testing.T) {
	sel := parseOne(t, `SELECT id, name FROM users WHERE score >= 10`).(Select)
	if sel.Table != "users" || len(sel.Cols) != 2 || sel.Cols[1] != "name" || sel.Count {
		t.Fatalf("parsed %+v", sel)
	}
	if w := sel.Where; w == nil || w.Col != "score" || w.Op != ">=" || w.Val.AsInt() != 10 {
		t.Fatalf("where = %+v", sel.Where)
	}
	// Every comparison operator; <> is read as !=.
	for src, want := range map[string]string{
		"=": "=", "!=": "!=", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
	} {
		w := parseOne(t, `SELECT * FROM t WHERE a `+src+` 'v'`).(Select).Where
		if w.Op != want || w.Val.AsText() != "v" {
			t.Errorf("%s parsed as %+v", src, w)
		}
	}
}

func TestParseSelectStarAndCount(t *testing.T) {
	s := parseOne(t, `SELECT * FROM t`).(Select)
	if s.Cols != nil || s.Count || s.Where != nil {
		t.Fatalf("star = %+v", s)
	}
	s = parseOne(t, `SELECT COUNT(*) FROM t WHERE a != NULL`).(Select)
	if !s.Count || s.Cols != nil || !s.Where.Val.IsNull() {
		t.Fatalf("count = %+v", s)
	}
}

func TestParseUpdateDelete(t *testing.T) {
	up := parseOne(t, `UPDATE t SET a = 1, b = 'z' WHERE id = 7`).(Update)
	if up.Table != "t" || len(up.Sets) != 2 || up.Sets[1].Val.AsText() != "z" || up.Where.Val.AsInt() != 7 {
		t.Fatalf("parsed %+v", up)
	}
	if up := parseOne(t, `UPDATE t SET a = 1`).(Update); up.Where != nil {
		t.Fatalf("parsed %+v", up)
	}
	del := parseOne(t, `DELETE FROM t WHERE id <> 3`).(Delete)
	if del.Table != "t" || del.Where.Op != "!=" {
		t.Fatalf("parsed %+v", del)
	}
	if del := parseOne(t, `DELETE FROM t`).(Delete); del.Where != nil {
		t.Fatalf("parsed %+v", del)
	}
}

func TestParseTransactionControl(t *testing.T) {
	stmts, err := Parse(`BEGIN; INSERT INTO t VALUES (1); COMMIT; ROLLBACK TRANSACTION`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 4 {
		t.Fatalf("%d statements", len(stmts))
	}
	if _, ok := stmts[0].(Begin); !ok {
		t.Fatalf("stmt0 = %T", stmts[0])
	}
	if _, ok := stmts[2].(Commit); !ok {
		t.Fatalf("stmt2 = %T", stmts[2])
	}
	if _, ok := stmts[3].(Rollback); !ok {
		t.Fatalf("stmt3 = %T", stmts[3])
	}
}

// removedForms maps each statement form outside the dialect to the
// construct its error must name.
var removedForms = map[string]string{
	`CREATE INDEX i ON t (a)`:                     "CREATE INDEX",
	`CREATE UNIQUE INDEX i ON t (a)`:              "CREATE INDEX",
	`DROP INDEX i`:                                "DROP INDEX",
	`DROP TABLE t`:                                "DROP TABLE",
	`VACUUM`:                                      "VACUUM",
	`SELECT DISTINCT a FROM t`:                    "DISTINCT",
	`SELECT a FROM t GROUP BY a`:                  "GROUP BY",
	`SELECT a FROM t HAVING a > 1`:                "HAVING",
	`SELECT SUM(a) FROM t`:                        "function call SUM",
	`SELECT COUNT(a) FROM t`:                      "COUNT of an expression",
	`SELECT * FROM t ORDER BY a`:                  "ORDER BY",
	`SELECT * FROM t LIMIT 3`:                     "LIMIT",
	`SELECT * FROM t OFFSET 3`:                    "OFFSET",
	`SELECT * FROM t WHERE a = 1 AND b = 2`:       "AND",
	`DELETE FROM t WHERE a = 1 OR b = 2`:          "OR",
	`SELECT * FROM t WHERE NOT a = 1`:             "NOT",
	`SELECT * FROM t WHERE a LIKE 'x%'`:           "LIKE",
	`SELECT * FROM t WHERE a NOT LIKE 'x%'`:       "NOT",
	`SELECT * FROM t WHERE a IN (1, 2)`:           "IN",
	`SELECT * FROM t WHERE a BETWEEN 1 AND 2`:     "BETWEEN",
	`SELECT * FROM t WHERE a IS NULL`:             "IS",
	`SELECT * FROM t WHERE a = 1 + 2`:             "operator +",
	`UPDATE t SET a = b * 2`:                      "column reference as a value",
	`INSERT INTO t VALUES (1 || 2)`:               "operator ||",
	`INSERT INTO t VALUES (-a)`:                   "unary -",
	`INSERT INTO t VALUES (upper('x'))`:           "function call upper",
	`SELECT * FROM t WHERE (a = 1)`:               "parenthesised expression",
	`SELECT * FROM t WHERE 1 = a`:                 "WHERE on an expression",
	`SELECT a AS b FROM t`:                        "AS",
	`SELECT 1`:                                    "SELECT of an expression",
	`SELECT 1 + 1 FROM t`:                         "SELECT of an expression",
	`SELECT *`:                                    "SELECT without FROM",
	`SELECT a; SELECT b FROM t`:                   "SELECT without FROM",
	`SELECT a FROM t WHERE a = 1 ORDER BY a DESC`: "ORDER BY",
}

func TestRemovedFormsAreUnsupported(t *testing.T) {
	for src, construct := range removedForms {
		_, err := Parse(src)
		if !errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: err = %v, want ErrUnsupported", src, err)
			continue
		}
		if want := "sql: unsupported: " + construct; err.Error() != want {
			t.Errorf("%q: err = %q, want %q", src, err, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"CREATE users",
		"INSERT t VALUES (1)",
		"SELECT FROM t",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a",
		"SELECT * FROM t WHERE a = ",
		"UPDATE t WHERE a = 1",
		"DELETE t",
		"INSERT INTO t VALUES (1",
		"CREATE TABLE t ()",
		"SELECT 'unterminated",
		"SELECT x'zz'",
		"SELECT t.a FROM t",
		"INSERT INTO t VALUES (99999999999999999999)",
		"FOO BAR",
	}
	for _, src := range bad {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("no error for %q", src)
		} else if errors.Is(err, ErrUnsupported) {
			t.Errorf("%q: a syntax error reported as unsupported: %v", src, err)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("SELECT 1 -- trailing comment\n + 2")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
	}
	if len(toks) != 5 { // SELECT 1 + 2 EOF
		t.Fatalf("tokens = %v", kinds)
	}
}

func TestValueCompareOrdering(t *testing.T) {
	order := []Value{Null(), Int(-5), Int(0), Real(0.5), Int(1), Text("a"), Text("b"), Blob([]byte("a"))}
	for i := 1; i < len(order); i++ {
		if Compare(order[i-1], order[i]) >= 0 {
			t.Fatalf("%v should sort before %v", order[i-1], order[i])
		}
	}
	if Compare(Int(3), Real(3.0)) != 0 {
		t.Fatal("3 != 3.0")
	}
}

func TestValueAccessors(t *testing.T) {
	if Int(42).AsText() != "42" || Text("42").AsInt() != 42 {
		t.Fatal("int/text coercion")
	}
	if Text("0.5").AsReal() != 0.5 {
		t.Fatal("text→real")
	}
	if Null().String() != "NULL" || Text("it's").String() != "'it''s'" || Blob([]byte{0xbe, 0xef}).String() != "x'beef'" {
		t.Fatal("display form")
	}
}

// Property: lexing never panics and either errors or terminates with EOF.
func TestLexerRobustness(t *testing.T) {
	f := func(s string) bool {
		toks, err := Lex(s)
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == TokEOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the parser never panics on arbitrary keyword soup.
func TestParserRobustness(t *testing.T) {
	words := []string{"SELECT", "FROM", "WHERE", "(", ")", ",", "1", "'x'",
		"a", "=", "AND", "*", "INSERT", "INTO", "VALUES", ";", "ORDER", "BY",
		"COUNT", "-", "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "NULL"}
	f := func(idxs []uint8) bool {
		var sb strings.Builder
		for _, i := range idxs {
			sb.WriteString(words[int(i)%len(words)])
			sb.WriteByte(' ')
		}
		_, _ = Parse(sb.String()) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
