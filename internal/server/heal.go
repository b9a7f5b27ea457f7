package server

import (
	"math/rand"
	"time"

	"fasp/internal/shard"
)

// runHealer is the background self-healing loop (Config.AutoHeal): every
// HealInterval it scans the shards and re-runs recovery (KV.Heal) on any
// that stopped serving — a writer fault leaves a shard degraded and every
// request against it UNAVAIL until someone heals it, and under chaos that
// someone must be the server itself. Sauer & Härder's instant-recovery
// argument applies directly: recovery only stays trustworthy as a
// continuously-exercised path.
//
// Failed attempts back off exponentially per shard, capped at
// healBackoffMax, with ±50% jitter so shards degraded by a common cause do
// not retry in lockstep. A successful heal resets the shard's backoff.
func (s *Server) runHealer() {
	defer close(s.healDone)
	type shardState struct {
		backoff time.Duration
		next    time.Time
	}
	state := make(map[int]*shardState)
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	tick := time.NewTicker(s.cfg.HealInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.healQuit:
			return
		case <-tick.C:
		}
		n := s.kv.Shards()
		for i := 0; i < n; i++ {
			info, err := s.kv.ShardStats(i)
			if err != nil {
				continue
			}
			if info.Health == shard.Healthy {
				delete(state, i)
				continue
			}
			st := state[i]
			if st == nil {
				st = &shardState{backoff: s.cfg.HealInterval}
				state[i] = st
			}
			now := time.Now()
			if now.Before(st.next) {
				continue
			}
			s.met.healAttempts.Add(1)
			if err := s.kv.Heal(i); err != nil {
				s.met.healFailures.Add(1)
				st.backoff *= 2
				if st.backoff > healBackoffMax {
					st.backoff = healBackoffMax
				}
				// Jitter the next attempt into [0.5, 1.5) × backoff.
				st.next = now.Add(st.backoff/2 + time.Duration(rng.Int63n(int64(st.backoff))))
			} else {
				delete(state, i)
			}
		}
	}
}
