//go:build !race

package shard_test

// raceEnabled reports whether the tests run under the race detector, where
// sync.Pool drops items at random, so allocation counts vary run to run.
const raceEnabled = false
