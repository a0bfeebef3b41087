package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"zipline"
	"zipline/internal/trace"
	"zipline/ziphttp"
)

const (
	proxyMsg   = 1 << 10 // bytes per message: 32 DNS queries
	proxyConns = 2       // closed-loop connections, one per CPU of the reference box
)

// countConn counts what a proxy writes onto the peer link. It embeds
// the TCP connection, so the bridge still finds CloseWrite.
type countConn struct {
	*net.TCPConn
	writes, bytes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	n, err := c.TCPConn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// echoChain is one connection: app → client proxy → peer link →
// server proxy → echo sink, and back.
type echoChain struct {
	app        *net.TCPConn
	links      [2]*countConn // written by the client and the server proxy
	all        []*net.TCPConn
	wg         sync.WaitGroup
	bridgeErrs [2]error
	sinkErr    error
	// sinkAt is when the sink held the whole message and began echoing
	// it, in nanoseconds since origin; the closed loop keeps one
	// message in flight, so one slot suffices.
	sinkAt atomic.Int64
	origin time.Time
}

// tcpPair returns the two ends of a fresh loopback connection.
func tcpPair(ln *net.TCPListener) (*net.TCPConn, *net.TCPConn, error) {
	d, err := net.DialTCP("tcp", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		return nil, nil, err
	}
	a, err := ln.AcceptTCP()
	if err != nil {
		d.Close()
		return nil, nil, err
	}
	return d, a, nil
}

// dialChain builds one connection through both proxies and starts the
// bridges and the echo sink.
func dialChain(ln *net.TCPListener, client, server *ziphttp.Proxy, origin time.Time) (*echoChain, error) {
	ch := &echoChain{origin: origin}
	var ends [6]*net.TCPConn
	for i := 0; i < 3; i++ {
		a, b, err := tcpPair(ln)
		if err != nil {
			for _, c := range ends[:2*i] {
				c.Close()
			}
			return nil, err
		}
		ends[2*i], ends[2*i+1] = a, b
	}
	ch.all = ends[:]
	// ends: app|clientPlain, clientLink|serverLink, serverPlain|sink.
	ch.app = ends[0]
	ch.links[0] = &countConn{TCPConn: ends[2]}
	ch.links[1] = &countConn{TCPConn: ends[3]}
	ch.wg.Add(3)
	go func() { defer ch.wg.Done(); ch.bridgeErrs[0] = client.Bridge(ends[1], ch.links[0]) }()
	go func() { defer ch.wg.Done(); ch.bridgeErrs[1] = server.Bridge(ends[4], ch.links[1]) }()
	go func() { defer ch.wg.Done(); ch.sinkErr = ch.echo(ends[5]) }()
	return ch, nil
}

// echo writes back everything it reads, stamping the moment each whole
// message has arrived; on EOF it half-closes so the chain drains.
func (ch *echoChain) echo(c *net.TCPConn) error {
	buf := make([]byte, 32<<10)
	got := 0
	for {
		n, err := c.Read(buf)
		if n > 0 {
			got += n
			if got >= proxyMsg {
				ch.sinkAt.Store(time.Since(ch.origin).Nanoseconds())
				got -= proxyMsg
			}
			if _, werr := c.Write(buf[:n]); werr != nil {
				return werr
			}
		}
		if errors.Is(err, io.EOF) {
			return c.CloseWrite()
		}
		if err != nil {
			return err
		}
	}
}

// close shuts the chain down through the proxies' own half-close path
// and waits for every goroutine; it reports whether the shutdown was
// clean. A chain that does not drain in time is torn down hard.
func (ch *echoChain) close() bool {
	clean := ch.app.CloseWrite() == nil
	done := make(chan error, 1)
	go func() {
		// The app side reads EOF once the half-close has gone round
		// the whole chain.
		_, err := io.Copy(io.Discard, ch.app)
		ch.wg.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		clean = clean && err == nil
	case <-time.After(10 * time.Second):
		clean = false
		for _, c := range ch.all {
			c.Close()
		}
		<-done
	}
	for _, c := range ch.all {
		c.Close()
	}
	return clean && ch.bridgeErrs[0] == nil && ch.bridgeErrs[1] == nil && ch.sinkErr == nil
}

func (ch *echoChain) wire() (writes, bytes int64) {
	for _, l := range ch.links {
		writes += l.writes.Load()
		bytes += l.bytes.Load()
	}
	return writes, bytes
}

// echoClient is one closed-loop caller.
type echoClient struct {
	ch   *echoChain
	msgs []byte
	next int // next message index
	buf  []byte
	// Shared with the other clients for one drive: round trip and, in
	// the traced half, forward and return legs in µs.
	rtt, fwd, ret *samples
	sent          int64
	failed        int64
	broken        bool
	// firstPass* snapshot the link counters when the client has sent
	// every message once, so the ratio does not depend on how many
	// repeats a run fits in.
	firstPassWire, firstPassRaw int64
}

func (e *echoClient) loop(deadline time.Time) {
	nmsg := len(e.msgs) / proxyMsg
	for !e.broken && time.Now().Before(deadline) {
		i := e.next % nmsg
		msg := e.msgs[i*proxyMsg : (i+1)*proxyMsg]
		t0 := time.Now()
		_, werr := e.ch.app.Write(msg)
		var rerr error
		if werr == nil {
			_, rerr = io.ReadFull(e.ch.app, e.buf)
		}
		t1 := time.Now()
		e.sent++
		e.next++
		if werr != nil || rerr != nil || !bytes.Equal(e.buf, msg) {
			e.failed++
			// A short or failed echo leaves the stream misaligned: stop
			// this connection rather than count every later message.
			e.broken = werr != nil || rerr != nil
			continue
		}
		e.rtt.add(float64(t1.Sub(t0).Nanoseconds()) / 1e3)
		if e.fwd != nil {
			at := e.ch.origin.Add(time.Duration(e.ch.sinkAt.Load()))
			e.fwd.add(float64(at.Sub(t0).Nanoseconds()) / 1e3)
			e.ret.add(float64(t1.Sub(at).Nanoseconds()) / 1e3)
		}
		if e.next == nmsg {
			_, e.firstPassWire = e.ch.wire()
			e.firstPassRaw = int64(2 * nmsg * proxyMsg)
		}
	}
}

// proxyRig is the proxy pair and its connections.
type proxyRig struct {
	ln      *net.TCPListener
	chains  []*echoChain
	connUs  []float64 // dial-through time per connection
	clients []*echoClient
}

// buildProxyRig trains the shared dictionary, builds both proxies and
// dials one connection per message pool.
func buildProxyRig(train []byte, pools [][]byte, origin time.Time) (*proxyRig, error) {
	dict, err := zipline.TrainDict(train, zipline.Config{})
	if err != nil {
		return nil, err
	}
	client, err := ziphttp.NewProxy(ziphttp.WithDict(dict))
	if err != nil {
		return nil, err
	}
	server, err := ziphttp.NewProxy(ziphttp.WithDict(dict))
	if err != nil {
		return nil, err
	}
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	rig := &proxyRig{ln: ln}
	for _, pool := range pools {
		t0 := time.Now()
		ch, err := dialChain(ln, client, server, origin)
		if err != nil {
			rig.close()
			return nil, err
		}
		rig.connUs = append(rig.connUs, float64(time.Since(t0).Nanoseconds())/1e3)
		rig.chains = append(rig.chains, ch)
		rig.clients = append(rig.clients, &echoClient{ch: ch, msgs: pool, buf: make([]byte, proxyMsg)})
	}
	return rig, nil
}

// rotate returns b starting at off and wrapping around.
func rotate(b []byte, off int) []byte {
	return append(append(make([]byte, 0, len(b)), b[off:]...), b[:off]...)
}

// close shuts every chain down and reports how many did not drain
// cleanly.
func (r *proxyRig) close() (unclean int64) {
	for _, ch := range r.chains {
		if !ch.close() {
			unclean++
		}
	}
	r.ln.Close()
	return unclean
}

// drive runs every client's closed loop until d has elapsed and
// returns the time taken. Round trips go to rtt; when fwd and ret are
// set (the traced half), the legs go to them.
func (r *proxyRig) drive(d time.Duration, rtt, fwd, ret *samples) time.Duration {
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, e := range r.clients {
		e.rtt, e.fwd, e.ret = rtt, fwd, ret
		wg.Add(1)
		go func(e *echoClient) {
			defer wg.Done()
			e.loop(deadline)
		}(e)
	}
	wg.Wait()
	return time.Since(start)
}

// tally sums and resets the clients' counters.
func (r *proxyRig) tally() (sent, failed int64) {
	for _, e := range r.clients {
		sent += e.sent
		failed += e.failed
		e.sent, e.failed = 0, 0
	}
	return sent, failed
}

func (r *proxyRig) wire() (writes, bytes int64) {
	for _, ch := range r.chains {
		w, b := ch.wire()
		writes += w
		bytes += b
	}
	return writes, bytes
}

func runProxy(c config) (*report, error) {
	queries := 200_000
	if c.tiny {
		queries = 20_000
	}
	all := trace.DNS(trace.DNSConfig{Queries: queries, Seed: derive(c.seed, 2)}).Bytes()
	// The dictionary is trained on a disjoint prefix of the trace; the
	// messages are the rest, cut into whole 1 KiB messages.
	trainLen := len(all) / 5 / 32 * 32
	train, msgs := all[:trainLen], all[trainLen:]
	msgs = msgs[:len(msgs)/proxyMsg*proxyMsg]
	// Each connection starts at its own offset in the message sequence.
	pools := make([][]byte, proxyConns)
	for i := range pools {
		pools[i] = rotate(msgs, i*(len(msgs)/proxyMsg)/proxyConns*proxyMsg)
	}

	origin := time.Now()
	rep := &report{lat: newSamples(c.seed)}
	heap0 := liveHeapMB()
	var rig *proxyRig
	var connUs []float64
	var unclean int64
	reps := 5
	var err error
	rep.setupS, err = repeatSetup(reps, func() error {
		r, err := buildProxyRig(train, pools, origin)
		if err != nil {
			return err
		}
		rig = r
		connUs = append(connUs, r.connUs...)
		return nil
	}, func() { unclean += rig.close() })
	if err != nil {
		return nil, err
	}

	dur := c.dur
	if c.trace {
		dur /= 2
	}
	m0 := mallocs()
	w0, b0 := rig.wire()
	elapsed := rig.drive(dur, rep.lat, nil, nil)
	allocs := mallocs() - m0
	rep.heapMB = liveHeapMB() - heap0
	runtime.KeepAlive(all) // the inputs, live at both heap readings
	w1, b1 := rig.wire()
	sent, failed := rig.tally()

	rep.attempted, rep.failed = sent, failed
	rep.figure("msgs_per_s", float64(sent)/elapsed.Seconds(), "1/s")

	if c.trace {
		rtt, fwd, ret := newSamples(c.seed), newSamples(c.seed+1), newSamples(c.seed+2)
		rig.drive(dur, rtt, fwd, ret)
		tsent, tfailed := rig.tally()
		rep.attempted += tsent
		rep.failed += tfailed
		rep.layer("ziphttp.forward_us_p50", fwd.quantile(0.5))
		rep.layer("ziphttp.return_us_p50", ret.quantile(0.5))
		rep.layer("ziphttp.peer_writes_per_msg", float64(w1-w0)/float64(max(sent, 1)))
		rep.layer("ziphttp.peer_bytes_per_msg", float64(b1-b0)/float64(max(sent, 1)))
		rep.layer("ziphttp.allocs_per_msg", float64(allocs)/float64(max(sent, 1)))
		rep.layer("ziphttp.setup_us_per_conn", median(connUs))
		rep.layer("trace.overhead_pct", overheadPct(rep.lat.mean(), rtt.mean()))
	}

	var wire, raw int64
	for _, e := range rig.clients {
		if e.firstPassRaw == 0 {
			// The run ended inside the first pass: use what was sent.
			e.firstPassRaw = int64(2*e.next) * proxyMsg
			_, e.firstPassWire = e.ch.wire()
		}
		wire += e.firstPassWire
		raw += e.firstPassRaw
		if e.broken {
			unclean++
		}
	}
	rep.ratio = float64(wire) / float64(max(raw, 1))
	// Every connection must also shut down cleanly through the
	// proxies' half-close path.
	unclean += rig.close()
	rep.attempted += int64(reps * proxyConns)
	rep.failed += unclean
	if rep.attempted == 0 {
		return nil, fmt.Errorf("no message completed")
	}
	return rep, nil
}
