package server

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"fasp"
	"fasp/internal/faultx"
	"fasp/internal/server/client"
	"fasp/internal/server/loadgen"
	"fasp/internal/server/wire"
)

// TestChaosSoak is the headline robustness gate: a multi-second storm of
// connection kills, torn writes, stalls, injected shard-writer panics, and
// whole-server crash-restarts, with retrying clients hammering unique-key
// PUTs throughout. The run must show real fault volume (panics healed,
// restarts survived, reconnects in the hundreds) AND a clean oracle: every
// acked write present and intact after final crash recovery, zero untyped
// client errors, zero dead connections. Any failure prints the replayable
// faultx spec.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	cfg := ChaosConfig{
		Spec: faultx.Spec{
			Seed:      1,
			KillProb:  0.03,
			TornProb:  0.02,
			StallProb: 0.005,
			Stall:     2 * time.Millisecond,
			PanicProb: 0.004,
			Restarts:  2,
		},
		Shards:   4,
		Duration: 3 * time.Second,
		Conns:    12,
		Pipeline: 4,
	}
	rep, err := RunChaos(cfg)
	t.Logf("chaos: spec=%s acked=%d faults=%+v restarts=%d heals=%d/%d loadgen=%+v",
		rep.Spec, rep.AckedWrites, rep.Faults, rep.Restarts,
		rep.HealAttempts, rep.HealFailures, rep.Loadgen)
	if err != nil {
		t.Fatalf("chaos soak failed (replay with spec %s): %v", rep.Spec, err)
	}
	// Fault volume: the storm must actually have stormed, or the oracle
	// proved nothing.
	if rep.Faults.Panics < 3 {
		t.Errorf("only %d injected shard panics (want >= 3); spec %s", rep.Faults.Panics, rep.Spec)
	}
	if rep.Restarts < 1 {
		t.Errorf("no completed server crash-restart; spec %s", rep.Spec)
	}
	if rep.Loadgen.Reconnects < 100 {
		t.Errorf("only %d client reconnects (want >= 100); spec %s", rep.Loadgen.Reconnects, rep.Spec)
	}
	if rep.Faults.Panics > 0 && rep.HealAttempts == 0 {
		t.Errorf("shards panicked but auto-heal never ran; spec %s", rep.Spec)
	}
	// Client cleanliness: every fault surfaced as a typed verdict or a
	// transparent repair, never an untyped error or a dead worker.
	if rep.Loadgen.Errors != 0 {
		t.Errorf("%d untyped client errors (want 0); spec %s", rep.Loadgen.Errors, rep.Spec)
	}
	if rep.Loadgen.ConnDrops != 0 {
		t.Errorf("%d workers lost their connection for good (want 0); spec %s", rep.Loadgen.ConnDrops, rep.Spec)
	}
	if rep.AckedWrites == 0 {
		t.Errorf("oracle set empty — no write was ever acked; spec %s", rep.Spec)
	}
}

// killNextWrite closes the connection instead of performing the next Write
// once armed — the server's commit has happened (replies are encoded and
// the dedup cache filled before writeOut), but the ack never reaches the
// client. This is the exact window the exactly-once machinery exists for.
type killNextWrite struct {
	net.Conn
	arm *atomic.Bool
}

func (c *killNextWrite) Write(p []byte) (int, error) {
	if c.arm.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, errors.New("killNextWrite: injected ack loss")
	}
	return c.Conn.Write(p)
}

// TestExactlyOnceKillBetweenCommitAndAck pins the retry layer's
// exactly-once contract at its sharpest edge: the server commits an INSERT,
// the connection dies before the ack lands, the client replays on a fresh
// connection — and the server answers from the dedup cache instead of
// re-executing. Without dedup the replayed INSERT would hit its own
// committed key and come back CodeDup.
func TestExactlyOnceKillBetweenCommitAndAck(t *testing.T) {
	var arm atomic.Bool
	_, _, addr := start(t, fasp.Options{Shards: 2}, Config{
		WrapConn: func(c net.Conn) net.Conn { return &killNextWrite{Conn: c, arm: &arm} },
	})

	cl, err := client.DialRetry(addr, client.RetryPolicy{})
	if err != nil {
		t.Fatalf("DialRetry: %v", err)
	}
	defer cl.Close()

	key := []byte("exactly-once")
	arm.Store(true) // next server write (the INSERT's ack) dies
	codes, err := cl.Batch([]wire.BatchOp{{Kind: wire.KindInsert, Key: key, Val: []byte("v1")}})
	if err != nil {
		t.Fatalf("Batch through ack loss: %v", err)
	}
	if len(codes) != 1 || codes[0] != wire.CodeOK {
		t.Fatalf("replayed INSERT codes = %v, want [OK] — dedup must answer the cached ack, not re-execute", codes)
	}
	if cl.Reconnects() < 1 {
		t.Fatal("ack was not actually lost: no reconnect happened")
	}

	// The write applied exactly once: a genuine second INSERT is a DUP, and
	// the value is the original.
	cl2 := dial(t, addr)
	codes2, err := cl2.Batch([]wire.BatchOp{{Kind: wire.KindInsert, Key: key, Val: []byte("v2")}})
	if err != nil {
		t.Fatalf("second INSERT: %v", err)
	}
	if len(codes2) != 1 || codes2[0] != wire.CodeDup {
		t.Fatalf("second INSERT codes = %v, want [DUP]", codes2)
	}
	if v, ok, err := cl2.Get(key); err != nil || !ok || string(v) != "v1" {
		t.Fatalf("Get after replay: %q %v %v, want v1", v, ok, err)
	}
}

// TestIdleTimeout pins the per-connection idle deadline (satellite knob):
// the server notices a silent connection, sends a typed CodeTimeout notice,
// closes it, and counts it. A plain client surfaces ErrRemoteTimeout; a
// retry client treats the notice as "reconnect and carry on".
func TestIdleTimeout(t *testing.T) {
	srv, _, addr := start(t, fasp.Options{Shards: 2}, Config{
		IdleTimeout:  50 * time.Millisecond,
		WriteTimeout: time.Second,
	})

	t.Run("plain client sees typed timeout", func(t *testing.T) {
		cl := dial(t, addr)
		if err := cl.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
		// Read the unsolicited notice directly off the pipeline.
		cl.QueuePing()
		code, payload, err := cl.Recv()
		if err != nil {
			t.Fatalf("Recv after idle: %v (want a CodeTimeout frame)", err)
		}
		if code != wire.CodeTimeout {
			t.Fatalf("code = %v, want timeout", code)
		}
		if terr := client.Err(code, payload); !errors.Is(terr, wire.ErrRemoteTimeout) {
			t.Fatalf("typed error = %v, want ErrRemoteTimeout", terr)
		}
	})

	t.Run("retry client reconnects through it", func(t *testing.T) {
		cl, err := client.DialRetry(addr, client.RetryPolicy{})
		if err != nil {
			t.Fatalf("DialRetry: %v", err)
		}
		defer cl.Close()
		if err := cl.Put([]byte("idle-k"), []byte("1")); err != nil {
			t.Fatalf("Put: %v", err)
		}
		time.Sleep(200 * time.Millisecond)
		if err := cl.Put([]byte("idle-k2"), []byte("2")); err != nil {
			t.Fatalf("Put after idle expiry: %v (retry client must repair)", err)
		}
		if cl.Reconnects() < 1 {
			t.Fatal("idle expiry did not force a reconnect")
		}
	})

	if n := srv.Snapshot().Timeouts; n < 1 {
		t.Fatalf("server counted %d idle timeouts, want >= 1", n)
	}
}

// TestAutoHealServer pins the background healer (tentpole forced change 1):
// an injected writer panic degrades a shard, the degraded-shards gauge
// shows it, clients get typed UNAVAIL carrying a retry-after hint, and the
// shard comes back on its own — no operator Heal call — within the heal
// cadence. One shard is one more input: the same engine, so the same fault
// hook, gauge and healer.
func TestAutoHealServer(t *testing.T) {
	for _, shards := range []int{4, 1} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { autoHealServer(t, shards) })
	}
}

func autoHealServer(t *testing.T, shards int) {
	var panicShard atomic.Int64
	panicShard.Store(-1)
	srv, kv, addr := start(t, fasp.Options{
		Shards: shards,
		FaultHook: func(s int) {
			if int64(s) == panicShard.Swap(-1) {
				panic("chaos_test: injected writer fault")
			}
		},
	}, Config{
		AutoHeal:     true,
		HealInterval: 2 * time.Millisecond,
	})
	cl := dial(t, addr)

	victim := shards - 1
	key := []byte("heal-me")
	for i := 0; shardOf(kv, key) != victim; i++ {
		key = []byte("heal-me-" + string(rune('a'+i)))
	}

	// The gauge is read right after the UNAVAIL reply; the healer may win
	// that race now and then, so the fault is injected until it is seen.
	sawGauge := false
	for attempt := 0; attempt < 20 && !sawGauge; attempt++ {
		panicShard.Store(int64(victim))
		cl.QueuePut(key, []byte("doomed"))
		if err := cl.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		code, payload, err := cl.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if code != wire.CodeUnavail {
			t.Fatalf("write through injected panic: %v, want unavail", code)
		}
		sawGauge = srv.Snapshot().DegradedShards == 1
		if ms := client.RetryAfter(payload); ms == 0 {
			t.Fatal("UNAVAIL carried no retry-after hint under AutoHeal")
		}

		// The healer must bring the shard back without any operator action.
		deadline := time.Now().Add(2 * time.Second)
		for {
			if err := cl.Put(key, []byte("recovered")); err == nil {
				break
			} else if !errors.Is(err, wire.ErrRemoteUnavail) {
				t.Fatalf("Put while degraded: %v", err)
			}
			if time.Now().After(deadline) {
				t.Fatal("shard never auto-healed")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !sawGauge {
		t.Fatal("degraded-shards gauge never showed the faulted shard")
	}
	snap := srv.Snapshot()
	if snap.HealAttempts < 1 {
		t.Fatalf("heal attempts = %d, want >= 1", snap.HealAttempts)
	}
	if snap.DegradedShards != 0 {
		t.Fatalf("degraded-shards gauge = %d after heal, want 0", snap.DegradedShards)
	}
	if v, ok, err := cl.Get(key); err != nil || !ok || string(v) != "recovered" {
		t.Fatalf("post-heal read: %q %v %v", v, ok, err)
	}
}

// TestLoadgenBusyUnderStalls pins the loadgen's typed-verdict accounting
// (satellite): with MaxInFlight=1 and injected read/write stalls, the
// server sheds aggressively — and every shed must land in Busy, never in
// Errors, with no connection ever dying.
func TestLoadgenBusyUnderStalls(t *testing.T) {
	in := faultx.New(faultx.Spec{
		Seed:      7,
		StallProb: 0.3,
		Stall:     3 * time.Millisecond,
	})
	_, _, addr := start(t, fasp.Options{Shards: 2}, Config{
		MaxInFlight: 1,
		WrapConn:    in.WrapConn,
	})
	res, err := loadgen.Run(loadgen.Config{
		Addr:     addr,
		Conns:    4,
		Pipeline: 8,
		Duration: 600 * time.Millisecond,
		Seed:     7,
		Prefix:   "stall",
	})
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}
	t.Logf("stall loadgen: %+v (stalls fired: %d)", res, in.Counts().Stalls)
	if res.Busy == 0 {
		t.Fatal("MaxInFlight=1 under pipelined load shed nothing into Busy")
	}
	if res.ConnDrops != 0 {
		t.Fatalf("%d connections died under stalls (want 0 — stalls are delays, not faults)", res.ConnDrops)
	}
	if res.Errors != 0 {
		t.Fatalf("%d untyped errors (want 0 — every shed must be typed)", res.Errors)
	}
	if res.OpsAcked == 0 {
		t.Fatal("nothing was ever acked")
	}
	if in.Counts().Stalls == 0 {
		t.Fatal("injector never stalled — the test exercised nothing")
	}
}
