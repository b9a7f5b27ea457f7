// Quickstart: open a FAST+ database on emulated persistent memory, create
// a table, insert and update rows, and query them — the smallest
// end-to-end use of the public API.
package main

import (
	"fmt"
	"log"

	"fasp"
)

func main() {
	db, err := fasp.Open(fasp.Options{
		Scheme:    fasp.SchemeFASTPlus, // the paper's headline scheme
		PMReadNS:  300,                 // emulated PM latency (ns / cache line)
		PMWriteNS: 300,
	})
	if err != nil {
		log.Fatal(err)
	}

	db.MustExec(`
		CREATE TABLE contacts (id INTEGER PRIMARY KEY, name TEXT NOT NULL, phone TEXT);
		INSERT INTO contacts (name, phone) VALUES ('Ada Lovelace', '+44-1815');
		INSERT INTO contacts (name, phone) VALUES ('Edsger Dijkstra', '+31-1930');
		INSERT INTO contacts (name, phone) VALUES ('Barbara Liskov', '+1-1939');
	`)

	db.MustExec(`UPDATE contacts SET phone = '+1-1974' WHERE id = 3`)

	rows, err := db.Query(`SELECT id, name, phone FROM contacts WHERE id >= 2`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("contacts from #2 on:")
	for _, r := range rows {
		fmt.Printf("  #%d %s %s\n", r[0].AsInt(), r[1].AsText(), r[2].AsText())
	}

	// The dialect is the harness the paper's figures need; anything else
	// is refused with an error wrapping sql.ErrUnsupported.
	if _, err := db.Exec(`SELECT name FROM contacts ORDER BY name`); err != nil {
		fmt.Println("\n" + err.Error())
	}

	// Every statement ran as a failure-atomic transaction on PM; the
	// simulated clock shows what that cost.
	fmt.Printf("\nscheme: %s, simulated time: %.2f us\n",
		db.SchemeName(), float64(db.SimulatedNS())/1000)
}
