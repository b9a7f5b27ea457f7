package fasp

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestCloseRacesSubmissions pins the Close-vs-in-flight ordering contract
// under the race detector: goroutines hammer every submission path
// (Put/Submit/ApplyBatch/Get/Scan/Count) while another goroutine closes
// the KV. Every op must either complete normally or fail with the typed
// shutdown-path errors — never deadlock, panic, race, or silently apply
// after Close. Put and ApplyBatch race Close's seal under the shard lock;
// Submit races it on the shard queues, which Close serves before sealing.
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
				errs := make([]error, len(ops))
				var sp Submission
				for i := 0; i < 50; i++ {
					for j := range ops {
						ops[j] = Op{Kind: OpPut, Key: []byte(fmt.Sprintf("b%d-c%d-%d-%d", round, c, i, j)), Val: []byte("v")}
					}
					kv.Submit(&sp, ops, errs, []int32{2, 2})
					for _, err := range errs {
						report("Submit", err)
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
