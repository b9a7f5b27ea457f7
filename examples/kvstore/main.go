// KVStore: use the failure-atomic slotted-paging B-tree directly as an
// embedded ordered key/value store — the pager/B-tree layer the paper's
// Figures 6–10 measure, without the SQL front end. Demonstrates point
// operations, atomic multi-key batches, range scans, and the slotted-page
// machinery handling variable-length values (updates are out-of-place;
// fragmentation is repaired by copy-on-write defragmentation).
package main

import (
	"fmt"
	"log"
	"strings"

	"fasp"
)

func main() {
	kv, err := fasp.OpenKV(fasp.Options{Scheme: fasp.SchemeFASTPlus, PageSize: 1024})
	if err != nil {
		log.Fatal(err)
	}
	defer kv.Close() // seals the store and unregisters it from the metrics exporter

	// Point writes: each Put is one failure-atomic transaction.
	for i := 0; i < 500; i++ {
		key := fmt.Sprintf("user:%04d", i)
		val := fmt.Sprintf(`{"name":"user-%d","visits":%d}`, i, i*3)
		if err := kv.Insert([]byte(key), []byte(val)); err != nil {
			log.Fatal(err)
		}
	}

	// Variable-length update: grows the record; the old version is never
	// overwritten (recovery safety), the offset swap commits it.
	big := fmt.Sprintf(`{"name":"user-42","visits":126,"bio":%q}`, strings.Repeat("Go! ", 50))
	if err := kv.Put([]byte("user:0042"), []byte(big)); err != nil {
		log.Fatal(err)
	}

	// Atomic batch: all or nothing, committed through the slot-header log.
	err = kv.Batch(func(tx fasp.BatchTx) error {
		for i := 0; i < 10; i++ {
			if err := tx.Insert([]byte(fmt.Sprintf("session:%02d", i)), []byte("active")); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Ordered range scan.
	fmt.Println("users 0010..0014:")
	if err := kv.Scan([]byte("user:0010"), []byte("user:0014"), func(k, v []byte) bool {
		fmt.Printf("  %s = %.40s…\n", k, v)
		return true
	}); err != nil {
		log.Fatal(err)
	}

	n, _ := kv.Count()
	if err := kv.Validate(); err != nil {
		log.Fatalf("tree invalid: %v", err)
	}
	fmt.Printf("\n%d records, tree valid, %.2f simulated ms on %s\n",
		n, float64(kv.SimulatedNS())/1e6, kv.SchemeName())
}
