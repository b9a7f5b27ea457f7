package shard

// HoldWriteGate takes the write side of shard i's read gate, as a commit
// does, but neither the shard lock nor the machine: every read step on the
// shard parks until the returned func opens the gate again, and so does
// every write (inside the shard lock).
func (e *Engine) HoldWriteGate(i int) (release func()) {
	s := e.shards[i]
	s.gate.Lock()
	return s.gate.Unlock
}

// HoldReadStep opens one read step on healthy shard i, as a Get does, and
// keeps it open: get reads through the step's view, and every commit on
// the shard parks until release closes the step.
func (e *Engine) HoldReadStep(i int) (get func(key []byte) ([]byte, bool, error), release func(), err error) {
	s := e.shards[i]
	v, _, err := s.openView()
	if err != nil {
		return nil, nil, err
	}
	get = func(key []byte) ([]byte, bool, error) { return v.Get(key, nil) }
	return get, func() { s.closeView(v) }, nil
}

// WriterQueued reports whether a writer holds or waits for the write side
// of shard i's read gate: then no new read step may enter.
func (e *Engine) WriterQueued(i int) bool {
	s := e.shards[i]
	if s.gate.TryRLock() {
		s.gate.RUnlock()
		return false
	}
	return true
}
