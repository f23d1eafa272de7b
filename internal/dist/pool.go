// Persistent connection pooling: the sending half of a fleet member's
// endpoint (endpoint.go is the receiving half and owns the pool). A pool is
// keyed by peer address; a send acquires the peer's connection, encodes into that connection's
// reusable scratch buffer, and writes one length-prefixed frame under a
// write deadline. A broken connection is redialed with bounded backoff
// instead of blocking forever, and every frame/byte/retry/error is counted
// so wire cost is measured rather than estimated.

package dist

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport timeouts and retry policy: dialTimeout and writeTimeout bound
// connection setup and frame writes so a dead peer surfaces as an error
// instead of a hang; a failed send is retried sendRetries times on a fresh
// connection, sendBackoff apart, before giving up.
const (
	dialTimeout  = 2 * time.Second
	writeTimeout = 2 * time.Second
	sendRetries  = 2
	sendBackoff  = 10 * time.Millisecond
)

// wireStats counts transport-level traffic. All fields are atomics so the
// hot path never takes a lock for accounting.
type wireStats struct {
	frames  atomic.Int64 // frames written
	bytes   atomic.Int64 // bytes written (payload + 4-byte header)
	retries atomic.Int64 // redial attempts after a send failure
	errors  atomic.Int64 // sends abandoned after exhausting retries
}

// peerConn is one pooled connection plus its private scratch buffer; the
// mutex serializes writers so pipelined frames never interleave.
type peerConn struct {
	mu   sync.Mutex
	conn net.Conn
	buf  []byte
}

// pool manages persistent connections keyed by peer address.
type pool struct {
	stats *wireStats

	mu     sync.Mutex
	peers  map[string]*peerConn
	closed bool
}

func newPool(stats *wireStats) *pool {
	return &pool{stats: stats, peers: map[string]*peerConn{}}
}

func (p *pool) peer(addr string) (*peerConn, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, fmt.Errorf("dist: pool closed")
	}
	pc := p.peers[addr]
	if pc == nil {
		pc = &peerConn{}
		p.peers[addr] = pc
	}
	return pc, nil
}

// send encodes one frame via encode (which appends the payload to the
// scratch buffer and returns it) and writes it to addr, redialing with
// backoff on failure. It returns the payload size written.
func (p *pool) send(addr string, encode func([]byte) []byte) (int, error) {
	pc, err := p.peer(addr)
	if err != nil {
		return 0, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	payload := encode(pc.buf[:0])
	pc.buf = payload // keep the (possibly grown) buffer for reuse
	var lastErr error
	for attempt := 0; attempt <= sendRetries; attempt++ {
		if attempt > 0 {
			p.stats.retries.Add(1)
			time.Sleep(sendBackoff)
		}
		p.mu.Lock()
		closed := p.closed
		p.mu.Unlock()
		if closed {
			lastErr = fmt.Errorf("pool closed")
			break
		}
		if pc.conn == nil {
			conn, err := net.DialTimeout("tcp", addr, dialTimeout)
			if err != nil {
				lastErr = err
				continue
			}
			pc.conn = conn
		}
		if err := p.writeFrame(pc.conn, payload); err != nil {
			pc.conn.Close()
			pc.conn = nil
			lastErr = err
			continue
		}
		return len(payload) + 4, nil
	}
	p.stats.errors.Add(1)
	return 0, fmt.Errorf("dist: send to %s failed: %w", addr, lastErr)
}

func (p *pool) writeFrame(conn net.Conn, payload []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := conn.Write(payload); err != nil {
		return err
	}
	p.stats.frames.Add(1)
	p.stats.bytes.Add(int64(len(payload) + 4))
	return nil
}

// closeAll tears down every pooled connection and rejects future sends.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	peers := make([]*peerConn, 0, len(p.peers))
	for _, pc := range p.peers {
		peers = append(peers, pc)
	}
	p.peers = map[string]*peerConn{}
	p.mu.Unlock()
	for _, pc := range peers {
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
}
