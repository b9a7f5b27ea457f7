package main

// Chaos replay (-chaos-spec): runs the fault-injection harness
// (internal/server.RunChaos) — a faspserver under a seeded storm of
// connection kills, torn writes, stalls, injected shard-writer panics and
// whole-server crash-restarts, driven by retrying loadgen clients — then
// audits the acked-prefix oracle after a final crash recovery. The JSON
// report on stdout carries the replayable faultx spec; re-run any failure
// with -chaos-spec "<spec>".

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fasp/internal/faultx"
	"fasp/internal/server"
)

func runChaos(spec string, dur time.Duration, shards, conns int) {
	sp, err := faultx.ParseSpec(spec)
	if err != nil {
		fail("%v", err)
	}
	rep, chaosErr := server.RunChaos(server.ChaosConfig{
		Spec:     sp,
		Shards:   shards,
		Duration: dur,
		Conns:    conns,
	})
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fail("%v", err)
	}
	if chaosErr != nil {
		fail("chaos soak FAILED — replay with -chaos-spec %q: %v", rep.Spec, chaosErr)
	}
	fmt.Fprintf(os.Stderr,
		"crashtest: chaos OK: %d acked writes verified through %d kills, %d torn writes, %d stalls, %d shard panics (healed %d/%d), %d restarts, %d reconnects (spec %s)\n",
		rep.AckedWrites, rep.Faults.Kills, rep.Faults.Torn, rep.Faults.Stalls,
		rep.Faults.Panics, rep.HealAttempts-rep.HealFailures, rep.HealAttempts,
		rep.Restarts, rep.Loadgen.Reconnects, rep.Spec)
}
