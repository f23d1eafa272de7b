// The one TCP server of the dist plane. Node, Coordinator, HBGNode and
// HBGCoordinator each embed an endpoint and differ only in the handler they
// give it.

package dist

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"hbverify/internal/wire"
)

// idleTimeout bounds how long a server-side read blocks between frames on
// a persistent connection; an idle peer costs a redial, a dead one is
// detected instead of parking a goroutine forever.
const idleTimeout = 2 * time.Minute

// endpoint is a fleet member's transport: a listener on 127.0.0.1 with one
// reader goroutine per accepted connection, the pool its own sends go out
// on, and the counters of what it wrote.
type endpoint struct {
	ln    net.Listener
	pool  *pool
	stats wireStats
	conns *connSet
	wg    sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// listen starts serving. handle receives the message type and a reader over
// the body of every well-formed v1 frame; frames on one connection are
// handled in order on that connection's goroutine (the view-delta
// acknowledgement relies on it), frames on different connections
// concurrently. Anything that is not a v1 frame is dropped.
func (e *endpoint) listen(handle func(mt byte, body *wire.Reader)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.ln, e.conns, e.pool = ln, newConnSet(), newPool(&e.stats)
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if !e.conns.add(conn) {
				continue // accepted while Close ran; add closed it
			}
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				defer e.conns.remove(conn)
				defer conn.Close()
				for {
					_ = conn.SetReadDeadline(time.Now().Add(idleTimeout))
					payload, err := readFrame(conn)
					if err != nil {
						return
					}
					if len(payload) < 2 || payload[0] != frameV1 {
						continue
					}
					handle(payload[1], wire.NewReader(payload[2:]))
				}
			}()
		}
	}()
	return nil
}

// Addr returns the listen address.
func (e *endpoint) Addr() string { return e.ln.Addr().String() }

// Wire reports the transport counters: frames and bytes written, redial
// retries, and sends abandoned after exhausting retries.
func (e *endpoint) Wire() (frames, bytes, retries, errors int64) {
	return e.stats.frames.Load(), e.stats.bytes.Load(), e.stats.retries.Load(), e.stats.errors.Load()
}

// Close shuts the endpoint down: the listener stops, accepted connections
// are closed (unparking readers blocked on persistent peers) and the set
// refuses any connection accepted after that, pooled outbound connections
// are torn down, and all serving goroutines are joined. Later calls wait
// for the first and return its result.
func (e *endpoint) Close() error {
	e.closeOnce.Do(func() {
		e.closeErr = e.ln.Close()
		e.conns.closeAll()
		e.pool.closeAll()
		e.wg.Wait()
	})
	return e.closeErr
}

// connSet tracks accepted (server-side) connections so Close can unblock
// readers parked on persistent connections.
type connSet struct {
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

func newConnSet() *connSet { return &connSet{conns: map[net.Conn]struct{}{}} }

// add registers c. After closeAll it closes c instead and reports false:
// nobody else would.
func (s *connSet) add(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		c.Close()
		return false
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *connSet) remove(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *connSet) closeAll() {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.conns = map[net.Conn]struct{}{}
	s.mu.Unlock()
}

// readFrame reads one length-prefixed payload.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dist: oversized frame (%d bytes)", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}
