package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tokenarbiter/internal/core"
	"tokenarbiter/internal/dme"
	"tokenarbiter/internal/live"
	"tokenarbiter/internal/registry"
	"tokenarbiter/internal/session"
	"tokenarbiter/internal/transport"
)

// clusterNodes is the live workloads' cluster size.
const clusterNodes = 3

// liveOptions is the protocol configuration both live workloads share:
// 0.2 ms collection and forwarding phases keep latency about the lock
// path rather than the window, and §6 recovery is on.
func liveOptions() core.Options {
	return core.Options{
		Treq:              0.0002,
		Tfwd:              0.0002,
		RetransmitTimeout: 1,
		Recovery: core.RecoveryOptions{
			Enabled:      true,
			TokenTimeout: 1,
			RoundTimeout: 0.25,
		},
	}
}

// cluster is an in-process loopback-TCP cluster of lock managers,
// optionally fronted by session servers.
type cluster struct {
	tr   *tracer // nil when untraced
	tcps []*transport.TCPTransport
	mgrs []*live.Manager
	// creating is the key whose instances are being created; the traced
	// factory labels its decorator with it. Keys are created only during
	// warm-up, one at a time, and by lease-expiry restarts, which
	// restartMu serializes.
	creating  atomic.Pointer[string]
	restartMu sync.Mutex

	servers  []*session.Server
	serveErr chan error
	serving  int // Serve goroutines started
	clients  []*session.Client
	sessions []*session.Session
}

// newCluster builds the managers. The caller closes it.
func newCluster(seed uint64, tr *tracer) (*cluster, error) {
	c := &cluster{tr: tr}
	addrs := make(map[dme.NodeID]string, clusterNodes)
	for i := 0; i < clusterNodes; i++ {
		tcp, err := transport.NewTCPOpt(i, map[dme.NodeID]string{i: "127.0.0.1:0"}, transport.TCPOptions{})
		if err != nil {
			c.close()
			return nil, err
		}
		c.tcps = append(c.tcps, tcp)
		addrs[i] = tcp.Addr().String()
	}
	for i, tcp := range c.tcps {
		tcp.SetPeers(addrs)
		var tpt transport.Transport = tcp
		factory := registry.CoreLiveFactory(liveOptions())
		if tr != nil {
			tpt = transport.Chain(tcp, tr.transportMW(i))
			factory = c.tracedFactory(i)
		}
		m, err := live.NewManager(live.ManagerConfig{
			ID: i, N: clusterNodes, Transport: tpt,
			Factory: factory,
			Algo:    "core",
			Seed:    splitmix64(seed + uint64(i) + 1),
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.mgrs = append(c.mgrs, m)
	}
	return c, nil
}

// tracedFactory builds node's protocol instances for the traced run:
// the core algorithm with the benchmark's observer next to the
// runtime's, wrapped in the step decorator.
func (c *cluster) tracedFactory(node int) live.Factory {
	return func(id, n int, obs func(core.Event)) (dme.Node, error) {
		key := c.creating.Load()
		if key == nil {
			return nil, errors.New("perfbench: lock key created outside warm-up and restarts")
		}
		opts := liveOptions()
		opts.Observer = core.FanOut(obs, c.tr.observer(true))
		inner, err := core.NewNode(id, n, opts)
		if err != nil {
			return nil, err
		}
		s := c.tr.newStepNode(inner, node, c.tr.keyIdx[*key])
		c.tr.registerStepper(s)
		return s, nil
	}
}

// warmKeys locks and unlocks every key once from each node. Instances
// are created one key at a time: the key is locked from every node but
// the last in turn, and from the last too if its instance does not exist
// yet. The last node's first lock of a key that a peer's message created
// there can wait out a RetransmitTimeout, so those run for all keys at
// once. The grants pass through the keys' checkers like every later one.
func (c *cluster) warmKeys(ctx context.Context, keys []string, chk map[string]*keyChecker) error {
	lockUnlock := func(node int, k string) error {
		f, err := c.lockFence(ctx, node, k)
		if err != nil {
			return fmt.Errorf("warm key %q on node %d: %w", k, node, err)
		}
		chk[k].acquire(f)
		chk[k].release()
		c.mgrs[node].Unlock(k)
		return nil
	}
	last := len(c.mgrs) - 1
	var later []string
	for _, k := range keys {
		k := k
		c.creating.Store(&k)
		for i := 0; i < last; i++ {
			if err := lockUnlock(i, k); err != nil {
				c.creating.Store(nil)
				return err
			}
		}
		if c.waitInstance(last, k) {
			later = append(later, k)
		} else if err := lockUnlock(last, k); err != nil {
			c.creating.Store(nil)
			return err
		}
	}
	c.creating.Store(nil)
	errs := make(chan error, len(later))
	for _, k := range later {
		go func(k string) { errs <- lockUnlock(last, k) }(k)
	}
	var first error
	for range later {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func newCheckers(keys []string) map[string]*keyChecker {
	chk := make(map[string]*keyChecker, len(keys))
	for _, k := range keys {
		chk[k] = &keyChecker{}
	}
	return chk
}

// checkAll reports the first violation any key's checker saw.
func checkAll(chk map[string]*keyChecker) error {
	for k, c := range chk {
		if err := c.err(k); err != nil {
			return err
		}
	}
	return nil
}

// waitInstance reports whether node's instance of key exists, giving a
// peer's message in flight a moment to create it.
func (c *cluster) waitInstance(node int, key string) bool {
	deadline := time.Now().Add(5 * time.Millisecond)
	for c.mgrs[node].Node(key) == nil {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// lockFence is Manager.LockFence with the traced run's fence restored.
func (c *cluster) lockFence(ctx context.Context, node int, key string) (uint64, error) {
	f, err := c.mgrs[node].LockFence(ctx, key)
	if err != nil || c.tr == nil {
		return f, err
	}
	return c.tr.restoreFence(node, key, f)
}

// coalesce sums the transports' frame, flush and written-byte counters.
func (c *cluster) coalesce() (frames, flushes, sent uint64) {
	for _, t := range c.tcps {
		f, fl := t.CoalesceStats()
		s, _ := t.WireBytes()
		frames += f
		flushes += fl
		sent += s
	}
	return frames, flushes, sent
}

// checkReleased waits until every manager has released every grant it
// made; session servers release asynchronously after answering Release.
func (c *cluster) checkReleased() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		pending := ""
		for i, m := range c.mgrs {
			if g, r := m.Stats(); g != r {
				pending = fmt.Sprintf("node %d granted %d, released %d", i, g, r)
				break
			}
		}
		if pending == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return checkf("%s", pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// startSessions fronts nodes 0..servers-1 with session servers and dials
// one client connection to each, opening perConn leased sessions on it.
func (c *cluster) startSessions(servers, perConn int) error {
	c.serveErr = make(chan error, servers)
	for i := 0; i < servers; i++ {
		var backend session.Backend = c.mgrs[i]
		if c.tr != nil {
			backend = &tracedBackend{c: c, node: i}
		}
		srv, err := session.NewServer(session.Config{Backend: backend})
		if err != nil {
			return err
		}
		c.servers = append(c.servers, srv)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.serving++
		go func() { c.serveErr <- srv.Serve(ln) }()
		cl, err := c.dial(ln.Addr().String())
		if err != nil {
			return err
		}
		c.clients = append(c.clients, cl)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, cl := range c.clients {
		for j := 0; j < perConn; j++ {
			s, err := cl.Open(ctx, sessionTTL)
			if err != nil {
				return fmt.Errorf("open session: %w", err)
			}
			c.sessions = append(c.sessions, s)
		}
	}
	return nil
}

// sessionTTL is the lease of every benchmark session; the clients'
// automatic keepalive renews it.
const sessionTTL = 10 * time.Second

func (c *cluster) dial(addr string) (*session.Client, error) {
	if c.tr == nil {
		return session.Dial(addr, session.Options{})
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	cl, err := session.NewClient(&countingConn{Conn: conn, t: c.tr}, session.Options{})
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return cl, nil
}

// close tears everything down: clients, servers, then managers.
func (c *cluster) close() {
	for _, cl := range c.clients {
		_ = cl.Close()
	}
	for _, s := range c.servers {
		_ = s.Close()
	}
	for i := 0; i < c.serving; i++ {
		<-c.serveErr
	}
	for _, m := range c.mgrs {
		_ = m.Close()
	}
	if len(c.mgrs) < len(c.tcps) {
		for _, t := range c.tcps[len(c.mgrs):] {
			_ = t.Close()
		}
	}
}

// --- traced decorators ------------------------------------------------

// transportMW times node's transport Sends and inbound deliveries, and
// captures outbound messages for the wire replay.
func (t *tracer) transportMW(node int) transport.Middleware {
	return func(next transport.Transport) transport.Transport {
		return &tracedTransport{Transport: next, t: t, node: int8(node)}
	}
}

type tracedTransport struct {
	transport.Transport
	t    *tracer
	node int8
}

func (tt *tracedTransport) Send(to dme.NodeID, msg dme.Message) error {
	st := tt.t.now()
	err := tt.Transport.Send(to, msg)
	tt.t.record(span{start: st, end: tt.t.now(), name: spTransportSend, node: tt.node, key: tt.t.keyOf(msg)})
	if err == nil && to != dme.NodeID(tt.node) {
		tt.t.captureMsg(int(tt.node), msg)
	}
	return err
}

func (tt *tracedTransport) SetHandler(h transport.Handler) {
	tt.Transport.SetHandler(func(from dme.NodeID, msg dme.Message) {
		st := tt.t.now()
		h(from, msg)
		tt.t.record(span{start: st, end: tt.t.now(), name: spLiveDeliver, node: tt.node, key: tt.t.keyOf(msg)})
	})
}

// tracedBackend is the session servers' Backend in the traced run: it
// times the manager's lock calls and restores grant fences.
type tracedBackend struct {
	c    *cluster
	node int
}

func (b *tracedBackend) LockFence(ctx context.Context, key string) (uint64, error) {
	t := b.c.tr
	st := t.now()
	f, err := b.c.lockFence(ctx, b.node, key)
	if err != nil {
		return f, err
	}
	k := t.keyIdx[key]
	t.record(span{start: st, end: t.now(), id: acqID(k, f), name: spLiveLock, node: int8(b.node), key: k})
	return f, nil
}

func (b *tracedBackend) Unlock(key string) {
	t := b.c.tr
	st := t.now()
	b.c.mgrs[b.node].Unlock(key)
	t.record(span{start: st, end: t.now(), name: spLiveUnlock, node: int8(b.node), key: t.keyIdx[key]})
}

// RestartKey forwards the manager's lease-expiry hook, which the session
// server finds by type assertion. The restart builds the key's new
// instance through the traced factory, which must know the key.
func (b *tracedBackend) RestartKey(key string) (*live.Node, error) {
	b.c.restartMu.Lock()
	defer b.c.restartMu.Unlock()
	b.c.creating.Store(&key)
	defer b.c.creating.Store(nil)
	return b.c.mgrs[b.node].RestartKey(key)
}

// countingConn counts and times a session client's writes.
type countingConn struct {
	net.Conn
	t *tracer
}

func (c *countingConn) Write(p []byte) (int, error) {
	st := c.t.now()
	n, err := c.Conn.Write(p)
	c.t.record(span{start: st, end: c.t.now(), name: spSessionWrite, node: -1})
	c.t.sessWrites.Add(1)
	c.t.sessBytes.Add(int64(n))
	return n, err
}

// keyChecker asserts, cluster-wide for one key, that at most one caller
// holds it and that grant fences strictly increase.
type keyChecker struct {
	mu    sync.Mutex
	held  bool
	fence uint64
	bad   string
}

func (k *keyChecker) acquire(fence uint64) {
	k.mu.Lock()
	defer k.mu.Unlock()
	switch {
	case k.bad != "":
	case k.held:
		k.bad = fmt.Sprintf("granted fence %d while fence %d is held", fence, k.fence)
	case fence <= k.fence:
		k.bad = fmt.Sprintf("fence %d after fence %d", fence, k.fence)
	}
	k.held, k.fence = true, fence
}

func (k *keyChecker) release() {
	k.mu.Lock()
	k.held = false
	k.mu.Unlock()
}

func (k *keyChecker) err(key string) error {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.bad != "" {
		return checkf("key %q: %s", key, k.bad)
	}
	return nil
}
