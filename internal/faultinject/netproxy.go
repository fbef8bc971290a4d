package faultinject

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// NetProxy is a fault-injecting TCP proxy for chaos tests: it listens
// on a loopback port, forwards byte streams to a backend address, and
// injects network failures on command — connection refusal, mid-stream
// cuts, added latency with jitter, and full blackholing. The chaos
// suites put one in front of each shard server and drive the
// coordinator through it.
//
// All knobs are safe to flip concurrently with live traffic; each
// accepted connection samples the knobs as it proceeds, so a mode
// change affects both new and (where meaningful) in-flight connections.
type NetProxy struct {
	backend string
	ln      net.Listener

	// Refuse makes the proxy accept and immediately close new
	// connections — the observable behaviour of a refused/reset port
	// that still routes.
	refuse atomic.Bool
	// Blackhole makes the proxy read and discard client bytes without
	// ever forwarding or responding: the connection looks alive but the
	// peer has vanished. Only a client-side deadline gets out.
	blackhole atomic.Bool
	// latency/jitter delay each client→backend segment.
	latency atomic.Int64 // nanoseconds
	jitter  atomic.Int64 // nanoseconds, uniform [0, jitter)
	// cutAfter, when > 0, severs the connection after that many
	// backend→client bytes have been forwarded; one-shot, self-clears.
	cutAfter atomic.Int64

	rngMu sync.Mutex
	rng   uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewNetProxy starts a proxy on a fresh loopback port forwarding to
// backend. Close must be called to release it.
func NewNetProxy(backend string) (*NetProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &NetProxy{backend: backend, ln: ln, rng: 0x9e3779b97f4a7c15, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address — what the client dials.
func (p *NetProxy) Addr() string { return p.ln.Addr().String() }

// Refuse toggles connection refusal.
func (p *NetProxy) Refuse(on bool) { p.refuse.Store(on) }

// Blackhole toggles blackholing.
func (p *NetProxy) Blackhole(on bool) { p.blackhole.Store(on) }

// SetLatency injects base + uniform-jitter delay on each client→backend
// segment; zero disables.
func (p *NetProxy) SetLatency(base, jitter time.Duration) {
	p.latency.Store(int64(base))
	p.jitter.Store(int64(jitter))
}

// CutAfter arms a one-shot mid-stream cut: the next connection is
// severed after n backend→client bytes. The response's length prefix
// alone is 4 bytes, so small n tears a frame mid-body.
func (p *NetProxy) CutAfter(n int64) { p.cutAfter.Store(n) }

// CutNow severs every live proxied connection immediately.
func (p *NetProxy) CutNow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for c := range p.conns {
		c.Close()
	}
}

// Conns reports the proxied connections still open: each live client
// connection and, once dialed, its backend connection.
func (p *NetProxy) Conns() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.conns)
}

// Close stops the proxy, severs live connections, and joins all proxy
// goroutines.
func (p *NetProxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

func (p *NetProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		if p.refuse.Load() {
			conn.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			conn.Close()
			return
		}
		p.conns[conn] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serve(conn)
	}
}

// serve proxies one client connection.
func (p *NetProxy) serve(client net.Conn) {
	defer p.wg.Done()
	defer func() {
		p.mu.Lock()
		delete(p.conns, client)
		p.mu.Unlock()
		client.Close()
	}()

	if p.blackhole.Load() {
		// Swallow everything; respond with nothing. The client's
		// deadline is the only way out.
		io.Copy(io.Discard, client)
		return
	}

	backend, err := net.DialTimeout("tcp", p.backend, 2*time.Second)
	if err != nil {
		return
	}
	// Track the backend side too, so CutNow/Close sever both directions.
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		backend.Close()
		return
	}
	p.conns[backend] = struct{}{}
	p.mu.Unlock()
	defer func() {
		p.mu.Lock()
		delete(p.conns, backend)
		p.mu.Unlock()
		backend.Close()
	}()

	done := make(chan struct{}, 2)
	// client → backend, with latency injection per read segment.
	go func() {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 32<<10)
		for {
			n, err := client.Read(buf)
			if n > 0 {
				if d := p.delay(); d > 0 {
					time.Sleep(d)
				}
				if p.blackhole.Load() {
					continue // drop the segment; keep reading
				}
				if _, werr := backend.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	// backend → client, with the one-shot mid-stream cut.
	go func() {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 32<<10)
		for {
			n, err := backend.Read(buf)
			if n > 0 {
				if p.blackhole.Load() {
					continue // response vanishes into the blackhole
				}
				out := buf[:n]
				if cut := p.cutAfter.Load(); cut > 0 {
					if int64(len(out)) >= cut && p.cutAfter.CompareAndSwap(cut, 0) {
						client.Write(out[:cut])
						return // sever after the partial write
					}
					p.cutAfter.CompareAndSwap(cut, cut-int64(n))
				}
				if _, werr := client.Write(out); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	// First direction to fail severs both (request/response protocol:
	// a half-open proxied connection has no value).
	<-done
	client.Close()
	backend.Close()
	<-done
}

// delay samples the configured latency + jitter; xorshift keeps the
// proxy free of the global rand (and of the banned time-seeded paths).
func (p *NetProxy) delay() time.Duration {
	base := p.latency.Load()
	jit := p.jitter.Load()
	if base == 0 && jit == 0 {
		return 0
	}
	d := base
	if jit > 0 {
		p.rngMu.Lock()
		p.rng ^= p.rng << 13
		p.rng ^= p.rng >> 7
		p.rng ^= p.rng << 17
		r := p.rng
		p.rngMu.Unlock()
		d += int64(r % uint64(jit))
	}
	return time.Duration(d)
}
