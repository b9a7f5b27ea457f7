package engine

import (
	"fmt"
	"strings"
	"testing"

	"fasp/internal/fast"
	"fasp/internal/pmem"
)

// TestStatementAllocs pins the host allocations of the four statement
// shapes of the sql-insert stream on a FAST+ engine over 4 KiB pages: a
// single-row INSERT of the next id, a DELETE of the oldest row, a SELECT and
// an UPDATE of a live row by id, each with a 64-byte payload. A count above
// its pin is a regression on the SQL host path; one below it means the pin
// can come down.
func TestStatementAllocs(t *testing.T) {
	const preload, runs = 2000, 200
	sys := pmem.NewSystem(pmem.DefaultLatencies(300, 300))
	db := Open(fast.Create(sys, fast.Config{PageSize: 4096, MaxPages: 4096, Variant: fast.InPlaceCommit}))
	db.MustExec(`CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)`)
	payload := strings.Repeat("a5", 64)
	for id := 1; id <= preload; id++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO kv VALUES (%d, x'%s')`, id, payload))
	}
	shapes := []struct {
		name string
		stmt func(i int) string
		pin  float64
	}{
		{"insert", func(i int) string { return fmt.Sprintf(`INSERT INTO kv VALUES (%d, x'%s')`, preload+1+i, payload) }, 17},
		{"delete", func(i int) string { return fmt.Sprintf(`DELETE FROM kv WHERE id = %d`, 1+i) }, 16},
		{"select", func(i int) string { return fmt.Sprintf(`SELECT payload FROM kv WHERE id = %d`, preload/2+i) }, 20},
		{"update", func(i int) string {
			return fmt.Sprintf(`UPDATE kv SET payload = x'%s' WHERE id = %d`, payload, preload/2+i)
		}, 22},
	}
	for _, sh := range shapes {
		// AllocsPerRun calls the function once more than runs to warm up.
		stmts := make([]string, runs+1)
		for i := range stmts {
			stmts[i] = sh.stmt(i)
		}
		next := 0
		got := testing.AllocsPerRun(runs, func() {
			db.MustExec(stmts[next])
			next++
		})
		t.Logf("%s: %.0f allocs/stmt (pin %.0f)", sh.name, got, sh.pin)
		if got > sh.pin {
			t.Errorf("%s: %.0f allocs/stmt, pinned at %.0f", sh.name, got, sh.pin)
		}
	}
}
