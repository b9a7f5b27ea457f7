package main

import (
	"bufio"
	"encoding/binary"
	"net"
	"sync"

	"fasp/internal/server/wire"
)

// stubServer is the benchmark's own listener: it answers every frame at
// once — OK to writes, a fixed value to GET, an empty page to SCAN — and
// does nothing else. Driving the generator against it measures the
// generator alone: its top rate and its CPU per request, which every
// server workload must clear by a wide margin before its numbers mean
// anything about the server.
type stubServer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns []net.Conn
}

func startStub(valLen int) (*stubServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &stubServer{ln: ln}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.serve(c, valLen)
			}()
		}
	}()
	return s, nil
}

func (s *stubServer) addr() string { return s.ln.Addr().String() }

// stop closes the listener and every connection and waits for the
// goroutines to end.
func (s *stubServer) stop() {
	s.ln.Close()
	s.mu.Lock()
	for _, c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *stubServer) serve(c net.Conn, valLen int) {
	defer c.Close()
	br := bufio.NewReaderSize(c, 64<<10)
	var buf, out []byte
	value := make([]byte, valLen)
	codes := make([]wire.Code, wire.MaxBatchOps)
	var sw wire.ScanReplyWriter
	for {
		op, payload, nb, err := wire.ReadFrame(br, 0, buf)
		if err != nil {
			return
		}
		buf = nb
		switch wire.BaseOp(op) {
		case wire.OpGet:
			out = wire.AppendValue(out, wire.CodeOK, value)
		case wire.OpBatch:
			if op == wire.OpBatchSeq && len(payload) >= 8 {
				payload = payload[8:] // the sequence token
			}
			n := 0
			if len(payload) >= 4 {
				n = min(int(binary.BigEndian.Uint32(payload)), len(codes))
			}
			out = wire.AppendBatchReply(out, codes[:n])
		case wire.OpScan:
			sw.Begin(out)
			out = sw.End(false)
		default:
			out = wire.AppendOK(out)
		}
		if br.Buffered() == 0 || len(out) > 32<<10 {
			if _, err := c.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}
