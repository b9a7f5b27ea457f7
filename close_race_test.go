package fasp

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fasp/internal/slotted"
)

// TestCloseRacesSubmissions pins the Close-vs-in-flight ordering contract
// under the race detector: goroutines hammer every submission path
// (Put/Enqueue/ApplyBatch/Get/Scan/Count) while another goroutine closes
// the KV. Every op must either complete normally or fail with the typed
// shutdown-path errors — never deadlock, panic, race, or silently apply
// after Close. Put and ApplyBatch race Close's seal under the shard lock;
// Enqueue races it on the shard's queue, which Close serves before sealing.
func TestCloseRacesSubmissions(t *testing.T) {
	for round := 0; round < 8; round++ {
		// Odd rounds run four shards, even rounds one.
		kv, err := OpenKV(Options{Shards: 1 + 3*(round%2)})
		if err != nil {
			t.Fatalf("OpenKV: %v", err)
		}

		allowed := func(err error) bool {
			return err == nil ||
				errors.Is(err, ErrClosed) ||
				errors.Is(err, ErrShardBusy) ||
				errors.Is(err, ErrShardDown)
		}
		var (
			mu  sync.Mutex
			bad error
		)
		report := func(path string, err error) {
			if allowed(err) {
				return
			}
			mu.Lock()
			if bad == nil {
				bad = fmt.Errorf("%s: %w", path, err)
			}
			mu.Unlock()
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; i < 200; i++ {
					k := []byte(fmt.Sprintf("r%d-c%d-%04d", round, c, i))
					report("Put", kv.Put(k, []byte("v")))
				}
			}(c)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				ops := make([]Op, 4)
				for i := 0; i < 50; i++ {
					for j := range ops {
						ops[j] = Op{Kind: OpPut, Key: []byte(fmt.Sprintf("b%d-c%d-%d-%d", round, c, i, j)), Val: []byte("v")}
					}
					for _, err := range enqueueAll(kv, ops) {
						report("Enqueue", err)
					}
					for _, err := range kv.ApplyBatch(ops) {
						report("ApplyBatch", err)
					}
				}
			}(c)
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-start
				for i := 0; i < 100; i++ {
					if _, _, err := kv.Get([]byte(fmt.Sprintf("r%d-c%d-%04d", round, c, i))); err != nil {
						report("Get", err)
					}
					if _, err := kv.Count(); err != nil {
						report("Count", err)
					}
					err := kv.Scan(nil, nil, func(k, v []byte) bool { return false })
					report("Scan", err)
				}
			}(c)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			kv.Close()
		}()
		close(start)
		wg.Wait()
		// Idempotent double Close after the storm.
		kv.Close()
		if bad != nil {
			t.Fatalf("round %d: unexpected error: %v", round, bad)
		}
	}
}

// enqueueAll submits ops through the shard queues the way a pipelined
// caller does: one handle per shard, every shard enqueued before any is
// waited on. The verdicts come back aligned with ops.
func enqueueAll(kv *KV, ops []Op) []error {
	n := kv.Shards()
	parts := make([][]Op, n)
	idx := make([][]int, n)
	for i, op := range ops {
		si := kv.ShardOf(op.Key)
		parts[si] = append(parts[si], op)
		idx[si] = append(idx[si], i)
	}
	reqs := make([]Request, n)
	errs := make([][]error, n)
	for si := range parts {
		if len(parts[si]) > 0 {
			errs[si] = make([]error, len(parts[si]))
			kv.Enqueue(&reqs[si], si, parts[si], errs[si], nil)
		}
	}
	out := make([]error, len(ops))
	for si := range reqs {
		kv.Wait(&reqs[si])
		for j, i := range idx[si] {
			out[i] = errs[si][j]
		}
	}
	return out
}

// TestCloseServesQueued: Close serves whatever is queued before it seals.
// Shard 0's first round stalls in the fault hook while more handles queue
// behind it, and Close starts meanwhile. Once the stall is released, every
// queued handle gets its real verdict — its put commits, its duplicate
// insert is refused as a duplicate — not ErrClosed. The handles are waited
// on only after Close has returned, so Close itself served them. A later
// Enqueue gets ErrClosed.
func TestCloseServesQueued(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	var stalled atomic.Bool
	kv, err := OpenKV(Options{Shards: 2, FaultHook: func(si int) {
		if si == 0 && !stalled.Swap(true) {
			close(entered)
			<-release
		}
	}})
	if err != nil {
		t.Fatalf("OpenKV: %v", err)
	}
	defer kv.Close()
	keyOn0 := func(n int) []byte {
		for i := 0; ; i++ {
			k := []byte(fmt.Sprintf("q%d-%d", n, i))
			if kv.ShardOf(k) == 0 {
				return k
			}
		}
	}
	dup := keyOn0(-1)

	first := make(chan error, 1)
	go func() {
		errs := make([]error, 1)
		kv.SubmitShard(0, []Op{{Kind: OpPut, Key: dup, Val: []byte("v")}}, errs)
		first <- errs[0]
	}()
	<-entered // shard 0's first round is stalled under the shard lock

	const queued = 8
	reqs := make([]Request, queued)
	errs := make([][]error, queued)
	keys := make([][]byte, queued)
	for i := range reqs {
		keys[i] = keyOn0(i)
		ops := []Op{
			{Kind: OpPut, Key: keys[i], Val: []byte("v")},
			{Kind: OpInsert, Key: dup, Val: []byte("again")},
		}
		errs[i] = make([]error, len(ops))
		kv.Enqueue(&reqs[i], 0, ops, errs[i], []int32{1, 1})
	}

	closed := make(chan struct{})
	go func() { kv.Close(); close(closed) }()
	for !kv.Closed() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while shard 0's round was stalled")
	case <-time.After(10 * time.Millisecond):
	}
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs after the stall was released")
	}
	if err := <-first; err != nil {
		t.Fatalf("stalled round: %v", err)
	}
	for i := range reqs {
		kv.Wait(&reqs[i])
		if err := errs[i][0]; err != nil {
			t.Fatalf("queued put %d: %v", i, err)
		}
		if err := errs[i][1]; !errors.Is(err, slotted.ErrDuplicate) {
			t.Fatalf("queued duplicate insert %d: %v, want a duplicate-key refusal", i, err)
		}
		if v, ok, err := kv.Get(keys[i]); err != nil || !ok || string(v) != "v" {
			t.Fatalf("queued put %d not readable after Close: %q %v %v", i, v, ok, err)
		}
	}

	var r Request
	late := make([]error, 1)
	kv.Enqueue(&r, 0, []Op{{Kind: OpPut, Key: keyOn0(queued), Val: []byte("v")}}, late, nil)
	kv.Wait(&r)
	if !errors.Is(late[0], ErrClosed) {
		t.Fatalf("Enqueue after Close: %v, want ErrClosed", late[0])
	}
}
