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

// keywords are the words the dialect reserves for the statements it runs;
// the words in removed, which start a construct it refuses, are reserved
// too.
var keywords = []string{
	"SELECT", "FROM", "WHERE", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
	"DELETE", "CREATE", "TABLE", "IF", "NOT", "EXISTS", "NULL", "PRIMARY",
	"KEY", "INTEGER", "INT", "TEXT", "REAL", "BLOB", "BEGIN", "COMMIT",
	"ROLLBACK", "TRANSACTION", "COUNT",
}

// reserved maps every reserved word, upper-case, to itself: a keyword
// token's Text is this one shared string, never a fresh copy.
var reserved = func() map[string]string {
	m := make(map[string]string, len(keywords)+len(removed))
	for _, w := range keywords {
		m[w] = w
	}
	for w := range removed {
		m[w] = w
	}
	return m
}()

// keyword returns the reserved word that word spells in any letter case.
// It upper-cases ASCII letters into a stack buffer longer than any reserved
// word, so a lookup allocates nothing.
func keyword(word string) (string, bool) {
	var buf [16]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := reserved[string(buf[:len(word)])]
	return kw, ok
}

// Lex tokenises a SQL string.
func Lex(src string) ([]Token, error) {
	// A statement without a long literal has about one token per five bytes
	// (EOF included); one with a long literal has fewer.
	toks := make([]Token, 0, min(len(src)/5+3, 64))
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
			// x'ABCD' blob literal
			if (word == "x" || word == "X") && j < n && src[j] == '\'' {
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
			if kw, ok := keyword(word); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Pos: i})
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
				toks = append(toks, Token{Kind: TokOp, Text: src[i : i+1], Pos: i})
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
