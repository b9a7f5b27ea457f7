package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"fasp/internal/server/client"
	"fasp/internal/server/wire"
)

// genStats is what one connection's generator measured.
type genStats struct {
	all      sliceRec           // every request, ops weighted
	kind     [reqKinds]sliceRec // the same samples by request kind
	late     [nSlices + 1]hist  // open loop: send time − due time, by slice
	reqs     int64              // requests sent
	ops      int64              // ops those requests carried
	failed   int64              // ops refused, errored, or answered wrongly
	overTime int64              // requests slower than the latency limit
	tr, rtr  *tracer            // sender's and receiver's spans; nil on untraced runs
}

// latencyLimit is the response-time limit of the open-loop workload: a
// request answered later than this (from its due time) missed it.
const latencyLimit = 2 * time.Millisecond

func (g *genStats) record(w window, q *request, lat time.Duration, ok bool, done time.Time) {
	s := w.slice(done)
	g.all.add(s, int64(lat), int64(q.n))
	g.kind[q.kind].add(s, int64(lat), int64(q.n))
	if !ok {
		g.failed += int64(q.n)
	}
	if !ok || lat > latencyLimit {
		g.overTime++
	}
}

// closedLoop keeps depth requests in flight on one connection through the
// product's client: fill the window, flush, take half the answers, refill.
// It stops sending when the window ends and then collects what is in
// flight, so every request sent is answered before it returns.
func closedLoop(addr string, st *srvStream, w window, depth int, verify bool, g *genStats, rul *rulerRec) error {
	cl, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	type slot struct {
		q  request
		t0 time.Time
	}
	ring := make([]slot, depth)
	head, inflight := 0, 0 // ring[head] is the oldest request in flight
	var codes []wire.Code
	scratch := make([]byte, st.m.sz.valLen)
	end := w.end()

	recv := func() error {
		sl := &ring[head]
		g.tr.begin(spanWait)
		code, payload, err := cl.Recv()
		g.tr.end()
		if err != nil {
			return err
		}
		done := time.Now()
		g.tr.begin(spanDecode)
		ok := !verify || st.m.verify(&sl.q, code, payload, &codes, scratch)
		g.tr.end()
		g.record(w, &sl.q, done.Sub(sl.t0), ok, done)
		head = (head + 1) % depth
		inflight--
		return nil
	}
	for time.Now().Before(end) {
		if rul != nil {
			theRuler().tick(w, rul)
		}
		g.tr.begin(spanEncode)
		for inflight < depth {
			sl := &ring[(head+inflight)%depth]
			st.draw(&sl.q)
			sl.t0 = time.Now()
			if err := queue(cl, &sl.q, st); err != nil {
				return err
			}
			inflight++
			g.reqs++
			g.ops += int64(sl.q.n)
		}
		g.tr.end()
		g.tr.begin(spanFlush)
		err := cl.Flush()
		g.tr.end()
		if err != nil {
			return err
		}
		for inflight > depth/2 {
			if err := recv(); err != nil {
				return err
			}
		}
	}
	for inflight > 0 {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// queue hands the request the stream just drew to the client's pipelined
// API, which encodes it: the closed loop measures the product's client.
func queue(cl *client.Client, q *request, st *srvStream) error {
	switch q.kind {
	case reqPut:
		cl.QueuePut(st.key[:], st.val)
	case reqBatch:
		cl.QueueBatch(st.bops)
	case reqGet:
		cl.QueueGet(st.key[:])
	default:
		return errors.New("closed loop: the client has no pipelined SCAN")
	}
	return nil
}

// syncLoop is a synchronous client on one connection: one request in
// flight, the next sent when its answer has been read and checked. It
// speaks the wire protocol directly (the product's client has no pipelined
// SCAN and keeps its sessions behind its retry layer), on a HELLO session
// when the stream has one. With as many connections as CPUs the box never
// idles — a goroutine that blocks on its socket finds the peer's request
// already waiting — so a round trip is the path through every hand-off and
// nothing else: no queue, no batch, no waking a sleeping CPU.
func syncLoop(addr string, st *srvStream, w window, verify bool, g *genStats, rul *rulerRec) error {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	c.(*net.TCPConn).SetNoDelay(true)
	br := bufio.NewReaderSize(c, 64<<10)
	var rbuf []byte
	if st.sessed {
		if rbuf, err = hello(c, br, st.sid, rbuf); err != nil {
			return err
		}
	}
	var q request
	var codes []wire.Code
	scratch := make([]byte, st.m.sz.valLen)
	out := make([]byte, 0, 4<<10)
	for end := w.end(); time.Now().Before(end); {
		if rul != nil {
			theRuler().tick(w, rul)
		}
		st.draw(&q)
		t0 := time.Now()
		g.tr.begin(spanEncode)
		out = st.frame(&q, out[:0])
		g.tr.end()
		g.tr.begin(spanFlush)
		_, err := c.Write(out)
		g.tr.end()
		if err != nil {
			return err
		}
		g.tr.begin(spanWait)
		op, payload, nb, err := wire.ReadFrame(br, 0, rbuf)
		g.tr.end()
		if err != nil {
			return err
		}
		rbuf = nb
		done := time.Now()
		g.tr.begin(spanDecode)
		ok := !verify || st.m.verify(&q, wire.Code(op), payload, &codes, scratch)
		g.tr.end()
		g.reqs++
		g.ops += int64(q.n)
		g.record(w, &q, done.Sub(t0), ok, done)
	}
	return nil
}

// hello opens session sid on a fresh connection.
func hello(c net.Conn, br *bufio.Reader, sid uint64, rbuf []byte) ([]byte, error) {
	if _, err := c.Write(wire.AppendHello(nil, sid)); err != nil {
		return rbuf, err
	}
	op, _, nb, err := wire.ReadFrame(br, 0, rbuf)
	if err != nil || wire.Code(op) != wire.CodeOK {
		return nb, fmt.Errorf("HELLO refused: code %d, %v", op, err)
	}
	return nb, nil
}

// openLoop offers requests on one connection at a fixed rate with seeded
// exponential gaps, whatever the server does. client.Client cannot send
// and receive at once, so the connection is driven through the wire
// package directly: a sender goroutine encodes and writes each request
// when it falls due, a receiver goroutine reads and checks the answers,
// and a fixed ring between them carries what each answer must look like.
// Latency runs from the due time, not the send time, so a stall is charged
// to every request it delayed.
func openLoop(addr string, st *srvStream, w window, rate float64, verify bool, g *genStats) error {
	c, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	c.(*net.TCPConn).SetNoDelay(true)
	br := bufio.NewReaderSize(c, 64<<10)
	var rbuf []byte

	if st.sessed {
		if rbuf, err = hello(c, br, st.sid, rbuf); err != nil {
			return err
		}
	}

	const ringSize = 4096
	ring := make([]request, ringSize)
	var sentN, recvN atomic.Int64 // ring[i%ringSize] is in flight for recvN <= i < sentN
	var sendErr error
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // sender
		defer wg.Done()
		pace, err := newPacer()
		if err != nil {
			sendErr = err
			c.Close()
			return
		}
		defer pace.f.Close()
		out := make([]byte, 0, 64<<10)
		gap := float64(time.Second) / rate
		span := int64(nSlices * w.each)
		for due := int64(0); ; {
			now := int64(time.Since(w.start))
			if due > now {
				if sendErr = pace.sleep(due - now); sendErr != nil {
					c.Close()
					return
				}
				now = int64(time.Since(w.start))
			}
			out = out[:0]
			n := sentN.Load()
			g.tr.begin(spanEncode)
			for due < span && due <= now && n-recvN.Load() < ringSize-1 && len(out) < 32<<10 {
				q := &ring[n%ringSize]
				st.draw(q)
				out = st.frame(q, out)
				q.dueNS = due
				g.late[min(int(due/int64(w.each)), nSlices)].add(now - due)
				due += st.r.expGap(gap)
				n++
				g.reqs++
				g.ops += int64(q.n)
			}
			g.tr.end()
			last := due >= span
			if last {
				// A PING closes the stream: its answer tells the receiver,
				// which otherwise blocks in read, that nothing more follows.
				ring[n%ringSize].kind = reqEnd
				out = wire.AppendEmptyReq(out, wire.OpPing)
				n++
			}
			if n == sentN.Load() {
				runtime.Gosched() // ring full: the receiver is behind
				continue
			}
			sentN.Store(n)
			g.tr.begin(spanFlush)
			_, err := c.Write(out)
			g.tr.end()
			if err != nil {
				sendErr = err
				c.Close() // unblocks the receiver
				return
			}
			if last {
				return
			}
		}
	}()

	var codes []wire.Code
	scratch := make([]byte, st.m.sz.valLen)
	var recvErr error
	for i := int64(0); ; i++ {
		g.rtr.begin(spanWait)
		op, payload, nb, err := wire.ReadFrame(br, 0, rbuf)
		g.rtr.end()
		if err == nil && i >= sentN.Load() {
			err = errors.New("open loop: an answer arrived with no request in flight")
		}
		if err != nil {
			recvErr = err
			c.Close() // unblocks the sender
			break
		}
		rbuf = nb
		done := time.Now()
		q := &ring[i%ringSize]
		if q.kind == reqEnd {
			break
		}
		g.rtr.begin(spanDecode)
		ok := !verify || st.m.verify(q, wire.Code(op), payload, &codes, scratch)
		g.rtr.end()
		g.record(w, q, done.Sub(w.start)-time.Duration(q.dueNS), ok, done)
		recvN.Store(i + 1)
	}
	wg.Wait()
	if sendErr != nil && recvErr != nil {
		return sendErr // the second error is only the closed connection
	}
	return errors.Join(sendErr, recvErr)
}

// pacer waits for short, exact intervals. The Go runtime rounds a sleep
// shorter than a millisecond up to one (an idle thread waits in epoll,
// whose timeout counts milliseconds), which at 10 000 requests a second
// per connection would make the generator ten requests late at a time; a
// thread sleeping in nanosleep instead keeps its P from the server's
// goroutines until the runtime's monitor notices. A timerfd read through
// the runtime's own poller has neither fault: the goroutine parks like any
// reader of a socket, and the kernel's high-resolution timer makes the
// descriptor readable on time — about 20 µs late at the median on this box.
type pacer struct {
	fd  uintptr
	f   *os.File
	buf [8]byte
}

func newPacer() (*pacer, error) {
	const clockMonotonic, tfdNonblock = 1, 0x800
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	return &pacer{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

func (p *pacer) sleep(ns int64) error {
	spec := struct{ interval, value syscall.Timespec }{value: syscall.NsecToTimespec(ns)}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return fmt.Errorf("timerfd_settime: %w", errno)
	}
	_, err := p.f.Read(p.buf[:])
	return err
}
