package shard

// HoldWriteGate flips shard i's read-epoch sequence odd, as a writer
// opening the write gate does, but takes neither the shard lock nor the
// machine: every epoch attempt backs off, so each read step runs out of
// retries and walks under the shard lock. The returned func closes the
// gate again. Nothing may write to the shard while the gate is held.
func (e *Engine) HoldWriteGate(i int) (release func()) {
	s := e.shards[i]
	s.seq.Add(1)
	return func() { s.seq.Add(1) }
}

// SetReadAttempts sets the epoch attempts each read step of e makes before
// it takes the shard lock; 0 sends every read under the lock. Call it
// before any goroutine reads from e.
func (e *Engine) SetReadAttempts(n int) {
	for _, s := range e.shards {
		s.maxAttempts = n
	}
}
