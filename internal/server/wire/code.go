package wire

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"fasp/internal/btree"
	"fasp/internal/shard"
	"fasp/internal/slotted"
)

// Code is a response status byte — the wire image of the engine's error
// taxonomy. CodeFor maps engine errors onto codes on the server; Err maps
// codes back onto typed client errors, so a client can errors.Is against
// the sentinels below exactly like an embedded caller tests fasp's.
type Code uint8

const (
	// CodeOK acknowledges the request; payload is op-specific.
	CodeOK Code = 0
	// CodeNotFound is a GET miss (not an error — the key is absent).
	CodeNotFound Code = 1
	// CodeDup is a logical per-op failure: INSERT of an existing key.
	CodeDup Code = 2
	// CodeKeyAbsent is a logical per-op failure: UPDATE/DELETE of an
	// absent key.
	CodeKeyAbsent Code = 3
	// CodeTooLarge is a logical per-op failure: record cannot fit a page.
	CodeTooLarge Code = 4
	// CodeBusy is retryable backpressure: the server shed the request
	// (in-flight limit) or a shard's queue was full (fasp.ErrShardBusy).
	// The operation was not applied; retry with backoff.
	CodeBusy Code = 5
	// CodeUnavail reports a shard not serving (writer fault → degraded,
	// fasp.ErrShardDown — or crashed awaiting recovery,
	// fasp.ErrShardCrashed). The error payload pins the shard id when the
	// engine reported one.
	CodeUnavail Code = 6
	// CodeShutdown reports a server draining or an engine closed under the
	// request (fasp.ErrClosed). Reconnect later.
	CodeShutdown Code = 7
	// CodeProto reports a malformed frame; the server closes the
	// connection after sending it, since framing is desynchronised.
	CodeProto Code = 8
	// CodeInternal is any engine error outside the taxonomy above.
	CodeInternal Code = 9
	// CodeTimeout reports that the server expired the connection's idle
	// deadline (Config.IdleTimeout) and is closing it. Nothing was lost —
	// the connection had no request in flight — so a client may simply
	// reconnect.
	CodeTimeout Code = 10
)

func (c Code) String() string {
	switch c {
	case CodeOK:
		return "ok"
	case CodeNotFound:
		return "not_found"
	case CodeDup:
		return "duplicate"
	case CodeKeyAbsent:
		return "key_absent"
	case CodeTooLarge:
		return "too_large"
	case CodeBusy:
		return "busy"
	case CodeUnavail:
		return "unavail"
	case CodeShutdown:
		return "shutdown"
	case CodeProto:
		return "proto"
	case CodeInternal:
		return "internal"
	case CodeTimeout:
		return "timeout"
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// Retryable reports whether a client should retry the request as-is after
// backing off: true only for BUSY — load shedding, not failure.
func (c Code) Retryable() bool { return c == CodeBusy }

// Logical reports whether the code is a per-op logical verdict (the
// operation was evaluated and refused by data state, not by availability).
func (c Code) Logical() bool {
	return c == CodeNotFound || c == CodeDup || c == CodeKeyAbsent || c == CodeTooLarge
}

// CodeFor maps an engine error to its wire code. The order matters only
// for wrapped chains that can never combine (availability vs logical);
// unknown errors are CodeInternal. The table test in code_test.go pins
// every mapping.
func CodeFor(err error) Code {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, shard.ErrBusy):
		return CodeBusy
	case errors.Is(err, shard.ErrClosed):
		return CodeShutdown
	case errors.Is(err, shard.ErrShardDown), errors.Is(err, shard.ErrCrashed):
		return CodeUnavail
	case errors.Is(err, slotted.ErrDuplicate):
		return CodeDup
	case errors.Is(err, btree.ErrKeyNotFound):
		return CodeKeyAbsent
	case errors.Is(err, btree.ErrTooLarge):
		return CodeTooLarge
	}
	return CodeInternal
}

// ShardOf extracts the shard id an engine error is pinned to. The shard
// engine prefixes contained-fault and submission errors with "shard %d:";
// errors without the prefix (e.g. bare ErrCrashed from a poisoned batch)
// yield -1.
func ShardOf(err error) int32 {
	if err == nil {
		return -1
	}
	s := err.Error()
	if !strings.HasPrefix(s, "shard ") {
		return -1
	}
	s = s[len("shard "):]
	cut := strings.IndexByte(s, ':')
	if cut <= 0 {
		return -1
	}
	n, perr := strconv.Atoi(s[:cut])
	if perr != nil || n < 0 {
		return -1
	}
	return int32(n)
}

// Typed client-side errors, one per non-OK code. Err wraps these with the
// server's message, so errors.Is works through the wire round trip.
var (
	ErrRemoteBusy      = errors.New("wire: server busy (retryable)")
	ErrRemoteUnavail   = errors.New("wire: shard unavailable")
	ErrRemoteShutdown  = errors.New("wire: server shutting down")
	ErrRemoteDup       = errors.New("wire: duplicate key")
	ErrRemoteKeyAbsent = errors.New("wire: key not found")
	ErrRemoteTooLarge  = errors.New("wire: record too large")
	ErrRemoteProto     = errors.New("wire: protocol error reported by peer")
	ErrRemoteTimeout   = errors.New("wire: connection idle timeout")
	ErrRemote          = errors.New("wire: server error")
)

// sentinel returns the client-side sentinel for a non-OK, non-NotFound
// code.
func (c Code) sentinel() error {
	switch c {
	case CodeBusy:
		return ErrRemoteBusy
	case CodeUnavail:
		return ErrRemoteUnavail
	case CodeShutdown:
		return ErrRemoteShutdown
	case CodeDup:
		return ErrRemoteDup
	case CodeKeyAbsent:
		return ErrRemoteKeyAbsent
	case CodeTooLarge:
		return ErrRemoteTooLarge
	case CodeProto:
		return ErrRemoteProto
	case CodeTimeout:
		return ErrRemoteTimeout
	}
	return ErrRemote
}

// Err builds the typed client error for an error response. CodeOK and
// CodeNotFound return nil — a GET miss is a (nil, false) result, not an
// error.
func (c Code) Err(shard int32, msg string) error {
	if c == CodeOK || c == CodeNotFound {
		return nil
	}
	sent := c.sentinel()
	if shard >= 0 {
		if msg != "" {
			return fmt.Errorf("%w: shard %d: %s", sent, shard, msg)
		}
		return fmt.Errorf("%w: shard %d", sent, shard)
	}
	if msg != "" {
		return fmt.Errorf("%w: %s", sent, msg)
	}
	return sent
}
