package server

import (
	"runtime"
	"testing"

	"fasp"
	"fasp/internal/server/wire"
)

// Steady-state allocation pin for the server data plane.
//
// testing.AllocsPerRun only counts the calling goroutine, so it cannot see
// the server's connection goroutine, which decodes each request, commits
// its write as a shard round and encodes the reply. This pin
// measures the whole process instead: runtime.MemStats.Mallocs delta
// across a long warm pipelined run, divided by round trips.
//
// Budget: 12 mallocs per PUT+GET round trip, measured ~2 on linux/amd64
// (engine commit-path bookkeeping — WAL records, page versions — not the
// server layer, which is pooled end to end: frame decode aliases the conn
// buffer, the flush's ops and units and the Submission the engine splits
// them in are conn-owned scratch, and the GET fast path reads into a
// reusable buffer). The headroom covers GC timing and runtime noise, not new
// per-request allocations: a steady-state alloc added to the conn or
// round hot path shows up here as several whole mallocs per op and
// fails the pin.
const allocBudgetPerRoundTrip = 12

// measureRoundTripAllocs runs warm pipelined PUT+GET round trips against
// addr and returns the process-wide mallocs per round trip.
func measureRoundTripAllocs(t *testing.T, addr string) float64 {
	t.Helper()
	cl := dial(t, addr)

	key := []byte("alloc-pin-key-000000")
	val := []byte("alloc-pin-value-0123456789abcdef")
	roundTrips := func(n int) {
		const window = 64 // keep the connection's pipeline full but bounded
		sent, recvd := 0, 0
		for recvd < n {
			for sent < n && sent-recvd < window {
				// Rotate keys across shards so every shard's round scratch
				// stays warm.
				key[len(key)-1] = byte('a' + sent%16)
				cl.QueuePut(key, val)
				cl.QueueGet(key)
				sent++
			}
			if err := cl.Flush(); err != nil {
				t.Fatalf("flush: %v", err)
			}
			code, _, err := cl.Recv() // PUT ack
			if err != nil || code != wire.CodeOK {
				t.Fatalf("put ack: %v %v", code, err)
			}
			code, _, err = cl.Recv() // GET value
			if err != nil || code != wire.CodeOK {
				t.Fatalf("get: %v %v", code, err)
			}
			recvd++
		}
	}

	// Warm every pooled buffer: conn arena, pend/ops/scratch slices,
	// engine queues and round scratch, client frame buffer.
	roundTrips(2000)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 8000
	roundTrips(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func TestServerRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pin needs a long steady-state run")
	}
	// One shard is the same engine: its GETs take the GetInto fast path
	// into the connection's buffer like any other shard count's.
	for _, shards := range []int{4, 1} {
		_, _, addr := start(t, fasp.Options{Shards: shards}, Config{})
		perOp := measureRoundTripAllocs(t, addr)
		t.Logf("pipelined, %d shard(s): %.2f mallocs per PUT+GET round trip (budget %d)", shards, perOp, allocBudgetPerRoundTrip)
		if perOp > allocBudgetPerRoundTrip {
			t.Fatalf("alloc regression, %d shard(s): %.2f mallocs per round trip exceeds budget %d — a per-request allocation crept into the data plane", shards, perOp, allocBudgetPerRoundTrip)
		}
	}
}
