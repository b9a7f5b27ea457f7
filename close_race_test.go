package fasp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestCloseRacesSubmissions pins the Close-vs-in-flight ordering contract
// under the race detector: goroutines hammer every submission path
// (Put/Enqueue/ApplyBatch/Get/Scan/Count) while another goroutine closes
// the KV. Every op must either complete normally or fail with the typed
// shutdown-path errors — never deadlock, panic, race, or silently apply
// after Close. Put and ApplyBatch commit on the caller's goroutine and race
// Close's seal; Enqueue races the writers' final mailbox drain.
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

// enqueueAll submits ops through the shard mailboxes the way a pipelined
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
