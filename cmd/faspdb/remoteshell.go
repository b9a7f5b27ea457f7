package main

// Remote shell mode (-connect): the same key/value commands as -kv, but
// issued over the wire protocol to a running faspserver instead of an
// in-process store. Built on internal/server/client, so the shell, the
// load generator, and the tests all share one frame encoder.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"fasp/internal/server/client"
)

func runRemoteShell(addr string) {
	cl, err := client.Dial(addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "faspdb: connect %s: %v\n", addr, err)
		os.Exit(1)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		fmt.Fprintf(os.Stderr, "faspdb: ping %s: %v\n", addr, err)
		os.Exit(1)
	}
	fmt.Printf("faspdb — connected to faspserver at %s. Type help for commands.\n", addr)
	sh := &shell{
		prompt: "kv@" + addr + "> ",
		st:     remoteKV{cl},
		help: `  ping                 round trip to the server
  .stats               server + engine statistics (JSON)`,
		extra: func(fields []string) bool { return remoteCommand(cl, fields) },
	}
	sh.run()
}

// remoteKV adapts a server connection to the shell's data commands.
type remoteKV struct{ *client.Client }

func (r remoteKV) Delete(key []byte) error { return r.Del(key) }

func (r remoteKV) Scan(lo, hi []byte, fn func(k, v []byte) bool) error {
	return r.Client.Scan(lo, hi, false, fn)
}

func (r remoteKV) Count() (int, error) {
	n, err := r.Client.Count()
	return int(n), err
}

// remoteCommand runs one of the remote shell's own commands; it returns
// false for a command that is not one of them.
func remoteCommand(cl *client.Client, fields []string) bool {
	switch fields[0] {
	case "ping":
		if err := cl.Ping(); err != nil {
			fmt.Printf("error: %v\n", err)
		} else {
			fmt.Println("pong")
		}
	case ".stats", "stats":
		raw, err := cl.Stats()
		if err != nil {
			fmt.Printf("error: %v\n", err)
			break
		}
		var pretty bytes.Buffer
		if json.Indent(&pretty, raw, "", "  ") == nil {
			fmt.Println(pretty.String())
		} else {
			fmt.Printf("%s\n", raw)
		}
	default:
		return false
	}
	return true
}
