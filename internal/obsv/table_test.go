package obsv

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tb := NewTable("Title", "col-a", "b")
	tb.AddRow("x", 1)
	tb.AddRow("longer-cell", 2.5)
	out := tb.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4+1 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[1], "col-a") || !strings.Contains(lines[1], "b") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.Contains(out, "2.50") {
		t.Fatalf("float not formatted: %q", out)
	}
	// Columns align: the 'b' column starts at the same offset everywhere.
	idx := strings.Index(lines[1], "b")
	for _, ln := range lines[3:] {
		if len(ln) <= idx {
			t.Fatalf("row too short: %q", ln)
		}
	}
}

func TestTableWithoutTitle(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow(1)
	if strings.HasPrefix(tb.String(), "\n") {
		t.Fatal("leading blank line for untitled table")
	}
}

func TestUsecFormatting(t *testing.T) {
	if Usec(1500) != "1.50" {
		t.Fatalf("Usec = %s", Usec(1500))
	}
	if UsecF(2500) != 2.5 {
		t.Fatalf("UsecF = %f", UsecF(2500))
	}
}

func TestSortedPhases(t *testing.T) {
	out := SortedPhases(map[string]int64{"z": 1000, "a": 2000})
	if len(out) != 2 || !strings.HasPrefix(out[0], "a=") || !strings.HasPrefix(out[1], "z=") {
		t.Fatalf("out = %v", out)
	}
}
