// Package shard implements a sharded store engine: the key space is
// hash-partitioned across N independent stores — each with its own
// simulated machine, commit scheme and B-tree. A shard owns no goroutine:
// whoever holds its lock commits. Do and ApplyBatch commit their own ops
// under it. Submit splits a write set by shard and puts each part on its
// shard's bounded queue (Enqueue); Wait takes the lock and serves rounds
// off the queue head — each round the queued submissions up to the drain
// bound, committed as one transaction (group commit) — until its own
// submission is served, which another submitter's round may already have
// done.
//
// Why this composes with the paper's failure atomicity: FAST, FAST+ and
// the baseline schemes are all per-store local — a commit's durability
// point (the slot-header log's commit mark, the HTM cache-line write, the
// WAL frame) lives inside one store's arena and never references another
// store. Hash partitioning therefore preserves failure atomicity shard by
// shard: a crash leaves every shard either before or after each of its own
// commit marks, and recovery runs independently per shard. What is given
// up is only cross-shard transactions, which the engine does not offer.
//
// Group commit amortises the commit protocol the way SiloR-style redo-only
// logging batches its log writes: a drained batch of K operations pays one
// log-flush/commit-mark/checkpoint sequence instead of K. But a batch of
// independent requests naturally spans several leaves, and a multi-leaf
// transaction loses the paper's in-place commit. So a round hands the
// store the batch's atomic units — one per submission, or one per request
// when the submitter says where its requests end — and marks each unit end
// on the transaction. FAST+ then installs in place every leaf that only
// single-leaf units changed, and logs the rest together. A transaction
// closes before a unit that would overflow the drain bound, so a request is
// never split across transactions unless it alone exceeds the bound. The
// durability rule is: every acknowledged op, plus any subset of the
// in-flight batch's units, each whole.
package shard

import (
	"errors"

	"fasp/internal/btree"
	"fasp/internal/slotted"
)

// OpKind selects the mutation an Op performs.
type OpKind uint8

const (
	// OpPut inserts the key or replaces its value if present.
	OpPut OpKind = iota
	// OpInsert inserts the key, failing on duplicates.
	OpInsert
	// OpUpdate replaces an existing key's value, failing if absent.
	OpUpdate
	// OpDelete removes the key, failing if absent.
	OpDelete
)

func (k OpKind) String() string {
	switch k {
	case OpPut:
		return "put"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}

// Op is one key/value mutation routed to a shard.
type Op struct {
	Kind OpKind
	Key  []byte
	Val  []byte
}

// benign reports whether err is a per-operation logical failure (duplicate
// key, absent key, oversized record) that leaves the enclosing transaction's
// working state untouched, so the rest of a group-commit batch can proceed.
// Everything else (page-space exhaustion, corruption) is a hard error.
func benign(err error) bool {
	return errors.Is(err, slotted.ErrDuplicate) ||
		errors.Is(err, btree.ErrKeyNotFound) ||
		errors.Is(err, btree.ErrTooLarge)
}

// applyTxOp applies one op inside an open batch transaction.
func applyTxOp(tx *btree.Tx, op *Op) error {
	switch op.Kind {
	case OpPut:
		return tx.Put(op.Key, op.Val)
	case OpInsert:
		return tx.Insert(op.Key, op.Val)
	case OpUpdate:
		return tx.Update(op.Key, op.Val)
	case OpDelete:
		return tx.Delete(op.Key)
	}
	return errors.New("shard: unknown op kind")
}

// ApplyOps applies ops to tree as group commits of at most maxBatch
// operations per transaction, filling errs (which must have len(ops)).
// It returns the number of transactions committed.
//
// Per-op logical failures (duplicate insert, update/delete of an absent
// key, oversized record) are recorded in errs without aborting the batch:
// the B-tree reports them before mutating anything, so the transaction's
// other operations commit untouched. A hard error (e.g. out of pages)
// rolls the whole batch transaction back and re-applies each of its ops in
// its own transaction, so every op is a unit of its own here and every
// caller gets an individual verdict.
//
// With ApplyUnits this is the shared core of the queued rounds, of
// Engine.ApplyBatch and of Engine.Do; keeping
// them on one code path keeps batch boundaries — and therefore simulated
// time — a pure function of the op sequence.
func ApplyOps(tree *btree.Tree, maxBatch int, ops []Op, errs []error) int64 {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	var batches int64
	for lo := 0; lo < len(ops); lo += maxBatch {
		hi := min(lo+maxBatch, len(ops))
		batches += applyChunk(tree, ops[lo:hi], errs[lo:hi], nil)
	}
	return batches
}

// ApplyUnits is ApplyOps over ops split into atomic units: units lists the
// op counts of consecutive requests, summing to len(ops). A transaction
// closes before a unit that would overflow maxBatch, so no unit is torn
// across two transactions, unless it alone is larger than maxBatch: such a
// unit is cut every maxBatch ops as ApplyOps cuts, in transactions of its
// own. Inside a transaction each unit end is marked (btree.Tx.MarkUnit),
// which lets FAST+ commit single-leaf units in place. Nil units is ApplyOps.
func ApplyUnits(tree *btree.Tree, maxBatch int, ops []Op, errs []error, units []int32) int64 {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if units == nil {
		return ApplyOps(tree, maxBatch, ops, errs)
	}
	var batches int64
	lo := 0
	for k := 0; k < len(units); {
		if n := int(units[k]); n > maxBatch {
			batches += ApplyOps(tree, maxBatch, ops[lo:lo+n], errs[lo:lo+n])
			lo += n
			k++
			continue
		}
		hi, j := lo, k
		for j < len(units) && hi-lo+int(units[j]) <= maxBatch {
			hi += int(units[j])
			j++
		}
		batches += applyChunk(tree, ops[lo:hi], errs[lo:hi], units[k:j])
		lo, k = hi, j
	}
	return batches
}

// applyChunk runs one group commit, marking the end of every unit but the
// last (Commit closes that one), and returns the transaction count. A hard
// error rolls the transaction back, and the chunk is applied again one unit
// per transaction (one op per unit when units is nil): a unit that meets a
// hard error on its own gives it to all of its ops and leaves no trace, so a
// request is never torn by another's failure or by its own.
func applyChunk(tree *btree.Tree, ops []Op, errs []error, units []int32) int64 {
	txns, err := applyTx(tree, ops, errs, units)
	if err == nil {
		return txns
	}
	txns = 0
	for lo, u := 0, 0; lo < len(ops); u++ {
		hi := lo + 1
		if units != nil {
			hi = lo + int(units[u])
		}
		n, err := applyTx(tree, ops[lo:hi], errs[lo:hi], nil)
		if err != nil {
			for i := lo; i < hi; i++ {
				errs[i] = err
			}
		}
		txns += n
		lo = hi
	}
	return txns
}

// applyTx applies ops in one transaction, marking unit ends as applyChunk
// says, and returns the transaction count (1, or 0 when no op applied or the
// commit failed) and the hard error that rolled it back, if one did.
func applyTx(tree *btree.Tree, ops []Op, errs []error, units []int32) (int64, error) {
	tx, err := tree.Begin()
	if err != nil {
		for i := range errs {
			errs[i] = err
		}
		return 0, nil
	}
	applied := false
	u, end := 0, len(ops) // the open unit, and the op it ends before
	if len(units) > 1 {
		end = int(units[0])
	}
	for i := range ops {
		for i == end && u+1 < len(units) {
			tx.MarkUnit()
			u++
			end += int(units[u])
		}
		opErr := applyTxOp(tx, &ops[i])
		errs[i] = opErr
		if opErr == nil {
			applied = true
		} else if !benign(opErr) {
			// The transaction's working state may be partially mutated.
			tx.Rollback()
			return 0, opErr
		}
	}
	if !applied {
		// Every op was refused before it touched the tree: there is nothing
		// to make durable, so the chunk pays no commit — exactly what a lone
		// rejected Insert/Update/Delete costs in its own transaction.
		tx.Rollback()
		return 0, nil
	}
	if cerr := tx.Commit(); cerr != nil {
		// Commit failed before the durability point: nothing from this
		// batch survives, report that to every op.
		for i := range errs {
			errs[i] = cerr
		}
		return 0, nil
	}
	return 1, nil
}
