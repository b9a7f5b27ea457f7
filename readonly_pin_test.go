package fasp

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// TestReadOnlyStatementPin is the tier-1 pin on what a SQL read costs the
// persistence layer under FAST+ and FAST: nothing. It runs a short stream in
// sql-insert's shape on Open — a table keyed by id, a preload, then
// INSERT / DELETE-oldest / SELECT / UPDATE by id — and asserts that
//
//   - every SELECT, whether in a statement of its own or inside
//     BEGIN…COMMIT, adds no CLFLUSH and no fence: a transaction that changed
//     nothing commits by closing;
//   - every UPDATE still adds at least one fence, so the read-only rule does
//     not swallow a write.
func TestReadOnlyStatementPin(t *testing.T) {
	const preload, stmts = 300, 400
	for _, sch := range []string{"fast+", "fast"} {
		t.Run(sch, func(t *testing.T) {
			db, err := Open(Options{Scheme: sch, PageSize: 1024})
			if err != nil {
				t.Fatal(err)
			}
			sys := db.System()
			rng := rand.New(rand.NewSource(1))
			payload := func() string {
				b := make([]byte, 16+rng.Intn(48))
				rng.Read(b)
				return hex.EncodeToString(b)
			}
			exec := func(stmt string) {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
			// cost runs stmt and returns the flushes and fences it added.
			cost := func(stmt string) (flushes, fences int64) {
				f0, n0 := db.PMStats().FlushCalls, sys.Fences()
				exec(stmt)
				return db.PMStats().FlushCalls - f0, sys.Fences() - n0
			}

			exec("CREATE TABLE kv (id INTEGER PRIMARY KEY, payload BLOB)")
			oldest, next := 1, 1
			for ; next <= preload; next++ {
				exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, x'%s')", next, payload()))
			}
			selects, updates := 0, 0
			for i := 0; i < stmts; i++ {
				switch u := rng.Intn(100); {
				case u < 35:
					exec(fmt.Sprintf("INSERT INTO kv VALUES (%d, x'%s')", next, payload()))
					next++
				case u < 70:
					exec(fmt.Sprintf("DELETE FROM kv WHERE id = %d", oldest))
					oldest++
				case u < 90:
					sel := fmt.Sprintf("SELECT payload FROM kv WHERE id = %d", oldest+rng.Intn(next-oldest))
					if f, n := cost(sel); f != 0 || n != 0 {
						t.Fatalf("statement %d, %q: %d flushes, %d fences; want 0", i, sel, f, n)
					}
					f0, n0 := db.PMStats().FlushCalls, sys.Fences()
					for _, stmt := range []string{"BEGIN", sel, sel, "COMMIT"} {
						exec(stmt)
					}
					if f, n := db.PMStats().FlushCalls-f0, sys.Fences()-n0; f != 0 || n != 0 {
						t.Fatalf("statement %d, BEGIN; %q ×2; COMMIT: %d flushes, %d fences; want 0", i, sel, f, n)
					}
					selects++
				default:
					upd := fmt.Sprintf("UPDATE kv SET payload = x'%s' WHERE id = %d", payload(), oldest+rng.Intn(next-oldest))
					if _, n := cost(upd); n == 0 {
						t.Fatalf("statement %d, %q: no fence; a write must persist", i, upd)
					}
					updates++
				}
			}
			if selects == 0 || updates == 0 {
				t.Fatalf("stream ran %d SELECTs and %d UPDATEs; want both", selects, updates)
			}
			t.Logf("%s: %d SELECTs and %d UPDATEs checked", sch, selects, updates)
		})
	}
}
