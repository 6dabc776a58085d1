package main

import (
	"net"
	"sync/atomic"
)

// wireCounts is what crossed the server side of the wire: calls to
// Read and Write on accepted connections (each is one syscall on a TCP
// socket) and the bytes they moved. Fewer reads or writes per request
// at the same bytes means more coalescing.
type wireCounts struct {
	reads, writes, bytesIn, bytesOut atomic.Uint64
}

type wireSnapshot struct{ Reads, Writes, BytesIn, BytesOut uint64 }

func (c *wireCounts) snapshot() wireSnapshot {
	return wireSnapshot{c.reads.Load(), c.writes.Load(), c.bytesIn.Load(), c.bytesOut.Load()}
}

func (a wireSnapshot) sub(b wireSnapshot) wireSnapshot {
	return wireSnapshot{a.Reads - b.Reads, a.Writes - b.Writes, a.BytesIn - b.BytesIn, a.BytesOut - b.BytesOut}
}

// countingListener wraps the listener the benchmark hands to Serve or
// ServeStream so every accepted connection is counted. Only traced runs
// use it: it hides *net.TCPConn from the server (Go sockets are
// TCP_NODELAY by default, so behaviour is unchanged) and costs two
// atomic adds per syscall.
type countingListener struct {
	net.Listener
	counts *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, counts: l.counts}, nil
}

type countingConn struct {
	net.Conn
	counts *wireCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.counts.reads.Add(1)
	c.counts.bytesIn.Add(uint64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.counts.writes.Add(1)
	c.counts.bytesOut.Add(uint64(n))
	return n, err
}
