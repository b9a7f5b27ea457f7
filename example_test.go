package fasp_test

import (
	"fmt"

	"fasp"
)

// ExampleOpen runs SQL on a FAST+ database over emulated persistent memory.
func ExampleOpen() {
	db, err := fasp.Open(fasp.Options{Scheme: fasp.SchemeFASTPlus})
	if err != nil {
		panic(err)
	}
	db.MustExec(`
		CREATE TABLE fruit (id INTEGER PRIMARY KEY, name TEXT);
		INSERT INTO fruit (name) VALUES ('apple'), ('pear'), ('plum');
	`)
	rows, _ := db.Query(`SELECT id, name FROM fruit WHERE name >= 'p'`)
	for _, r := range rows {
		fmt.Println(r[0].AsInt(), r[1].AsText())
	}
	_, err = db.Exec(`SELECT name FROM fruit ORDER BY name`)
	fmt.Println(err)
	// Output:
	// 2 pear
	// 3 plum
	// sql: unsupported: ORDER BY
}

// ExampleOpenKV uses the failure-atomic B-tree as an ordered KV store.
func ExampleOpenKV() {
	kv, err := fasp.OpenKV(fasp.Options{})
	if err != nil {
		panic(err)
	}
	defer kv.Close() // seals the store and unregisters it from the metrics exporter
	_ = kv.Insert([]byte("b"), []byte("2"))
	_ = kv.Insert([]byte("a"), []byte("1"))
	_ = kv.Insert([]byte("c"), []byte("3"))
	_ = kv.Scan(nil, nil, func(k, v []byte) bool {
		fmt.Printf("%s=%s\n", k, v)
		return true
	})
	// Output:
	// a=1
	// b=2
	// c=3
}

// ExampleDB_Crash demonstrates power-failure recovery: committed data
// survives, the database recovers to a consistent state.
func ExampleDB_Crash() {
	db, _ := fasp.Open(fasp.Options{})
	db.MustExec(`CREATE TABLE t (id INTEGER PRIMARY KEY); INSERT INTO t VALUES (1)`)

	db.Crash(fasp.CrashOptions{Seed: 1, EvictProb: 0.5}) // power failure
	if err := db.Reopen(); err != nil {                  // §4.4 recovery
		panic(err)
	}
	rows, _ := db.Query(`SELECT COUNT(*) FROM t`)
	fmt.Println(rows[0][0].AsInt())
	// Output:
	// 1
}
