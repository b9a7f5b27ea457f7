package main

// The key/value shells (-kv and -connect) share one command loop: the data
// commands put/get/del/scan/count run against a kvStore, which is an
// in-process *fasp.KV or a connection to a faspserver, and each shell adds
// its own commands.

import (
	"bufio"
	"fmt"
	"os"
	"strings"

	"fasp/internal/obsv"
)

// kvStore is what the data commands need of a store.
type kvStore interface {
	Put(key, val []byte) error
	Get(key []byte) ([]byte, bool, error)
	Delete(key []byte) error
	Scan(lo, hi []byte, fn func(k, v []byte) bool) error
	Count() (int, error)
}

// shell is one interactive key/value shell.
type shell struct {
	prompt string
	st     kvStore
	// help lists the shell's own commands; extra runs one of them and
	// returns false for a command it does not know.
	help  string
	extra func(fields []string) bool
	// simNS, when set, reads the store's simulated clock, and every command
	// that advances it prints the simulated time it took.
	simNS func() int64
}

// run reads commands from stdin until quit or the end of input.
func (sh *shell) run() {
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print(sh.prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var t0 int64
		if sh.simNS != nil {
			t0 = sh.simNS()
		}
		quit := sh.command(fields)
		if sh.simNS != nil {
			if elapsed := sh.simNS() - t0; elapsed > 0 {
				fmt.Printf("(%s simulated us)\n", obsv.Usec(elapsed))
			}
		}
		if quit {
			return
		}
	}
}

// command executes one shell line; returns true to quit.
func (sh *shell) command(fields []string) bool {
	switch fields[0] {
	case "quit", "exit", ".quit", ".exit":
		return true
	case "help", ".help":
		fmt.Println(`commands:
  put <key> <value>    insert or replace
  get <key>            read
  del <key>            delete
  scan [lo [hi]]       list keys in order
  count                number of records
` + sh.help + `
  quit                 exit`)
	case "put":
		if len(fields) != 3 {
			fmt.Println("usage: put <key> <value>")
			break
		}
		if err := sh.st.Put([]byte(fields[1]), []byte(fields[2])); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	case "get":
		if len(fields) != 2 {
			fmt.Println("usage: get <key>")
			break
		}
		v, ok, err := sh.st.Get([]byte(fields[1]))
		switch {
		case err != nil:
			fmt.Printf("error: %v\n", err)
		case !ok:
			fmt.Println("(not found)")
		default:
			fmt.Printf("%s\n", v)
		}
	case "del":
		if len(fields) != 2 {
			fmt.Println("usage: del <key>")
			break
		}
		if err := sh.st.Delete([]byte(fields[1])); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	case "scan":
		var lo, hi []byte
		if len(fields) > 1 {
			lo = []byte(fields[1])
		}
		if len(fields) > 2 {
			hi = []byte(fields[2])
		}
		n := 0
		err := sh.st.Scan(lo, hi, func(k, v []byte) bool {
			fmt.Printf("%s = %s\n", k, v)
			n++
			return n < 1000
		})
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Printf("%d row(s)\n", n)
	case "count":
		n, err := sh.st.Count()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		fmt.Println(n)
	default:
		if !sh.extra(fields) {
			fmt.Println("unknown command; try help")
		}
	}
	return false
}
