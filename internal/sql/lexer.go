package sql

import (
	"fmt"
	"strings"
)

// TokKind classifies lexer tokens.
type TokKind int

const (
	// TokEOF ends the input.
	TokEOF TokKind = iota
	// TokIdent is an identifier or unquoted keyword.
	TokIdent
	// TokKeyword is a recognised SQL keyword (uppercased in Text).
	TokKeyword
	// TokInt is an integer literal.
	TokInt
	// TokFloat is a float literal.
	TokFloat
	// TokString is a 'single-quoted' string literal (unescaped in Text).
	TokString
	// TokBlob is an x'hex' blob literal (decoded bytes in Blob).
	TokBlob
	// TokOp is an operator or punctuation (=, <>, <=, (, ), ",", ;, …).
	TokOp
)

// Token is one lexical unit.
type Token struct {
	Kind TokKind
	Text string
	Blob []byte
	Pos  int
}

// keywords are the words the dialect reserves: those of the statements it
// runs, and (in removed) those that start a construct it refuses.
var keywords = map[string]bool{
	"SELECT": true, "FROM": true, "WHERE": true, "INSERT": true, "INTO": true,
	"VALUES": true, "UPDATE": true, "SET": true, "DELETE": true, "CREATE": true,
	"TABLE": true, "IF": true, "NOT": true, "EXISTS": true, "NULL": true,
	"PRIMARY": true, "KEY": true, "INTEGER": true, "INT": true, "TEXT": true,
	"REAL": true, "BLOB": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true,
	"TRANSACTION": true, "COUNT": true,
}

// Lex tokenises a SQL string.
func Lex(src string) ([]Token, error) {
	var toks []Token
	i := 0
	n := len(src)
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '-' && i+1 < n && src[i+1] == '-': // line comment
			for i < n && src[i] != '\n' {
				i++
			}
		case isAlpha(c):
			j := i
			for j < n && (isAlpha(src[j]) || isDigit(src[j])) {
				j++
			}
			word := src[i:j]
			up := strings.ToUpper(word)
			// x'ABCD' blob literal
			if (up == "X") && j < n && src[j] == '\'' {
				end := strings.IndexByte(src[j+1:], '\'')
				if end < 0 {
					return nil, fmt.Errorf("sql: unterminated blob literal at %d", i)
				}
				hexs := src[j+1 : j+1+end]
				b, err := decodeHex(hexs)
				if err != nil {
					return nil, fmt.Errorf("sql: bad blob literal at %d: %v", i, err)
				}
				toks = append(toks, Token{Kind: TokBlob, Blob: b, Pos: i})
				i = j + 2 + end
				continue
			}
			if keywords[up] || removed[up] != "" {
				toks = append(toks, Token{Kind: TokKeyword, Text: up, Pos: i})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: word, Pos: i})
			}
			i = j
		case isDigit(c) || (c == '.' && i+1 < n && isDigit(src[i+1])):
			j := i
			isFloat := false
			for j < n && (isDigit(src[j]) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				if src[j] == '.' || src[j] == 'e' || src[j] == 'E' {
					isFloat = true
				}
				j++
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{Kind: kind, Text: src[i:j], Pos: i})
			i = j
		case c == '\'':
			var sb strings.Builder
			j := i + 1
			for {
				if j >= n {
					return nil, fmt.Errorf("sql: unterminated string at %d", i)
				}
				if src[j] == '\'' {
					if j+1 < n && src[j+1] == '\'' { // escaped quote
						sb.WriteByte('\'')
						j += 2
						continue
					}
					break
				}
				sb.WriteByte(src[j])
				j++
			}
			toks = append(toks, Token{Kind: TokString, Text: sb.String(), Pos: i})
			i = j + 1
		case c == '"' || c == '`': // quoted identifier
			q := c
			j := i + 1
			for j < n && src[j] != q {
				j++
			}
			if j >= n {
				return nil, fmt.Errorf("sql: unterminated quoted identifier at %d", i)
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[i+1 : j], Pos: i})
			i = j + 1
		default:
			// Multi-char operators first.
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "||":
				toks = append(toks, Token{Kind: TokOp, Text: two, Pos: i})
				i += 2
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', ',', ';':
				toks = append(toks, Token{Kind: TokOp, Text: string(c), Pos: i})
				i++
			default:
				return nil, fmt.Errorf("sql: unexpected character %q at %d", c, i)
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Pos: n})
	return toks, nil
}

func isAlpha(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func decodeHex(s string) ([]byte, error) {
	if len(s)%2 != 0 {
		return nil, fmt.Errorf("odd hex length")
	}
	out := make([]byte, len(s)/2)
	for i := 0; i < len(s); i += 2 {
		hi, ok1 := hexVal(s[i])
		lo, ok2 := hexVal(s[i+1])
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("bad hex digit")
		}
		out[i/2] = hi<<4 | lo
	}
	return out, nil
}

func hexVal(c byte) (byte, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	case c >= 'A' && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
