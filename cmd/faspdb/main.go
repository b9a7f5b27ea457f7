// Command faspdb is an interactive SQL shell over the failure-atomic
// slotted-paging engine. It runs a full database on a simulated PM machine,
// so besides SQL it offers meta commands to inspect the simulated clock and
// to crash/recover the store.
//
// Usage:
//
//	faspdb                       # FAST+ at PM 300/300
//	faspdb -scheme nvwal -lat 900
//	faspdb -kv -shards 8         # sharded key/value shell
//	faspdb -connect host:4440    # remote KV shell over a running faspserver
//
// Meta commands: .help .clock .stats .crash .tables .quit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"fasp"
	"fasp/internal/obsv"
)

func main() {
	var (
		scheme   = flag.String("scheme", "fast+", "commit scheme: fast+|fast|nvwal|wal|journal")
		lat      = flag.Int64("lat", 300, "PM read/write latency (ns per cache line)")
		wlat     = flag.Int64("wlat", 0, "PM write latency override (defaults to -lat)")
		openPath = flag.String("open", "", "load a snapshot saved with .save")
		kvMode   = flag.Bool("kv", false, "key/value shell instead of SQL (required for -shards)")
		connect  = flag.String("connect", "", "remote KV shell against a running faspserver at this address")
		shards   = flag.Int("shards", 0, "with -kv: hash-partition across this many shards")
		maxBatch = flag.Int("maxbatch", 0, "with -kv -shards: group-commit drain bound (0 = default)")
	)
	flag.Parse()
	if *wlat == 0 {
		*wlat = *lat
	}
	if *connect != "" {
		runRemoteShell(*connect)
		return
	}
	if *kvMode {
		opts := fasp.Options{Scheme: *scheme, PMReadNS: *lat, PMWriteNS: *wlat, Shards: *shards, MaxBatch: *maxBatch}
		var kv *fasp.KV
		var err error
		if *openPath != "" {
			// Shard count and scheme come from the snapshot header.
			kv, err = fasp.OpenSnapshotKV(*openPath, fasp.Options{PMReadNS: *lat, PMWriteNS: *wlat})
		} else {
			kv, err = fasp.OpenKV(opts)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "faspdb: %v\n", err)
			os.Exit(1)
		}
		runKVShell(kv, *lat, *wlat)
		return
	}
	if *shards > 1 {
		fmt.Fprintln(os.Stderr, "faspdb: -shards requires -kv (the SQL engine is single-store)")
		os.Exit(2)
	}
	var db *fasp.DB
	var err error
	if *openPath != "" {
		db, err = fasp.OpenSnapshot(*openPath, fasp.Options{PMReadNS: *lat, PMWriteNS: *wlat})
	} else {
		db, err = fasp.Open(fasp.Options{Scheme: *scheme, PMReadNS: *lat, PMWriteNS: *wlat})
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspdb: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("faspdb — %s on emulated PM (%d/%d ns). Type .help for meta commands.\n",
		db.SchemeName(), *lat, *wlat)

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var pending strings.Builder
	for {
		if pending.Len() == 0 {
			fmt.Print("fasp> ")
		} else {
			fmt.Print("  ...> ")
		}
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, ".") && pending.Len() == 0 {
			if meta(db, line) {
				return
			}
			continue
		}
		pending.WriteString(line)
		pending.WriteByte(' ')
		if !strings.HasSuffix(line, ";") {
			continue
		}
		src := pending.String()
		pending.Reset()
		t0 := db.SimulatedNS()
		results, err := db.Exec(src)
		elapsed := db.SimulatedNS() - t0
		if err != nil {
			fmt.Printf("error: %v\n", err)
			continue
		}
		for _, res := range results {
			printResult(res)
		}
		fmt.Printf("(%s simulated us)\n", obsv.Usec(elapsed))
	}
}

func printResult(res fasp.Result) {
	if len(res.Columns) == 0 {
		if res.RowsAffected > 0 {
			fmt.Printf("%d row(s) affected\n", res.RowsAffected)
		}
		return
	}
	t := obsv.NewTable("", res.Columns...)
	for _, row := range res.Rows {
		cells := make([]any, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		t.AddRow(cells...)
	}
	t.Render(os.Stdout)
	fmt.Printf("%d row(s)\n", len(res.Rows))
}

// meta handles dot commands; returns true to quit.
func meta(db *fasp.DB, line string) bool {
	switch strings.Fields(line)[0] {
	case ".quit", ".exit":
		return true
	case ".help":
		fmt.Println(`meta commands:
  .help          this help
  .clock         simulated time and phase totals
  .stats         PM event counters
  .crash         simulate a power failure and recover
  .tables        list tables
  .save <file>   write a crash-consistent snapshot (reload: faspdb -open <file>)
  .quit          exit
SQL statements end with ';' and may span lines.`)
	case ".save":
		fields := strings.Fields(line)
		if len(fields) != 2 {
			fmt.Println("usage: .save <file>")
			break
		}
		if err := db.Save(fields[1]); err != nil {
			fmt.Printf("save failed: %v\n", err)
		} else {
			fmt.Printf("saved to %s\n", fields[1])
		}
	case ".clock":
		fmt.Printf("simulated time: %s us\n", obsv.Usec(db.SimulatedNS()))
		for _, s := range obsv.SortedPhases(db.System().Clock().Phases()) {
			fmt.Println("  " + s)
		}
	case ".stats":
		s := db.PMStats()
		fmt.Printf("PM line fills:   %d\n", s.LineFills)
		fmt.Printf("PM cache hits:   %d\n", s.CacheHits)
		fmt.Printf("word stores:     %d (%d bytes)\n", s.WordStores, s.BytesStored)
		fmt.Printf("clflush calls:   %d (%d line write-backs)\n", s.FlushCalls, s.LineWritebacks)
		fmt.Printf("fences:          %d\n", db.System().Fences())
	case ".crash":
		db.Crash(fasp.CrashOptions{Seed: db.SimulatedNS(), EvictProb: 0.5})
		if err := db.Reopen(); err != nil {
			fmt.Printf("recovery failed: %v\n", err)
		} else {
			fmt.Println("crashed and recovered")
		}
	case ".tables":
		names, err := db.Tables()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		for _, n := range names {
			schema, _ := db.Schema(n)
			fmt.Printf("%-20s %s\n", n, schema)
		}
		if len(names) == 0 {
			fmt.Println("(no tables)")
		}
	default:
		fmt.Println("unknown meta command; try .help")
	}
	return false
}
