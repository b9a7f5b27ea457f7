package sql

import (
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// upperLookup is the keyword rule Lex had before keyword(): upper-case the
// word with strings.ToUpper and look it up in both word lists.
func upperLookup(word string) Token {
	up := strings.ToUpper(word)
	for _, kw := range keywords {
		if kw == up {
			return Token{Kind: TokKeyword, Text: up}
		}
	}
	if removed[up] != "" {
		return Token{Kind: TokKeyword, Text: up}
	}
	return Token{Kind: TokIdent, Text: word}
}

// randomCase returns word with each ASCII letter's case drawn at random.
func randomCase(r *rand.Rand, word string) string {
	b := []byte(word)
	for i, c := range b {
		if r.Intn(2) == 0 {
			b[i] = strings.ToLower(string(c))[0]
		} else {
			b[i] = strings.ToUpper(string(c))[0]
		}
	}
	return string(b)
}

// TestLexKeywordsMatchUpperLookup lexes every reserved word, and near misses
// of each, in random letter case, and compares each token with the
// strings.ToUpper lookup. A keyword's Text must be the shared reserved
// string, not a copy.
func TestLexKeywordsMatchUpperLookup(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var words []string
	for _, kw := range keywords {
		words = append(words, kw, kw+"S", kw[1:], kw+"_", kw+"1")
	}
	for kw := range removed {
		words = append(words, kw, kw+"X", kw[:len(kw)-1])
	}
	words = append(words, "x", "kv", "payload", "rowid", "_", strings.Repeat("a", 16), "TRANSACTIONS12345")
	for _, w := range words {
		for range 8 {
			word := randomCase(r, w)
			toks, err := Lex(word)
			if err != nil {
				t.Fatalf("Lex(%q): %v", word, err)
			}
			if len(toks) != 2 || toks[1].Kind != TokEOF {
				t.Fatalf("Lex(%q) = %v, want one token and EOF", word, toks)
			}
			got, want := toks[0], upperLookup(word)
			if got.Kind != want.Kind || got.Text != want.Text {
				t.Fatalf("Lex(%q) = %v %q, want %v %q", word, got.Kind, got.Text, want.Kind, want.Text)
			}
			if got.Kind == TokKeyword && unsafe.StringData(got.Text) != unsafe.StringData(reserved[got.Text]) {
				t.Fatalf("Lex(%q) text is not the reserved string", word)
			}
		}
	}
}

// TestKeywordAllocatesNothing pins the keyword lookup at zero allocations,
// for a hit and a miss.
func TestKeywordAllocatesNothing(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() {
		keyword("tRaNsAcTiOn")
		keyword("payload")
	}); n != 0 {
		t.Fatalf("keyword allocates %v times", n)
	}
}
