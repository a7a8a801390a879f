package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/trace"
)

// MemoryConfig configures an in-process network.
type MemoryConfig struct {
	// Sites is the number of database sites (0..Sites-1). An endpoint for
	// the managing site exists in addition.
	Sites int
	// Delay is the fixed per-message inter-site communication cost. The
	// paper measured nine milliseconds per communication on its hardware
	// (§2.1); zero measures pure protocol cost.
	Delay time.Duration
}

// Memory is an in-process Network. Messages are serialized through the
// wire codec on send and deserialized on delivery, so sites share no
// mutable state — the same isolation real processes would have — and every
// experiment exercises the real encoding path ("real transaction
// processing on real sites with real message passing").
//
// A send pushes the encoded bytes straight onto the destination's single
// inbox; the receiver's Recv holds each message until Delay after its send
// and decodes it. Delivery is therefore FIFO per (sender, receiver) link,
// satisfying the paper's ordered-reliable-messaging assumption, and Delay
// is a per-message latency that messages from every sender pay
// concurrently, as on Ethernet or the Unix IPC of the original system.
type Memory struct {
	cfg MemoryConfig

	mu        sync.Mutex
	endpoints map[core.SiteID]*memEndpoint
	down      map[linkKey]bool
	credits   map[linkKey]int // remaining deliveries before the link drops
	closed    bool

	sent   atomic.Uint64
	tracer atomic.Pointer[trace.Recorder]
}

type linkKey struct{ from, to core.SiteID }

// memItem is one in-flight message in an inbox: the encoded bytes plus the
// moment it was sent, from which the delivery deadline is derived.
type memItem struct {
	buf []byte
	at  time.Time
}

// NewMemory returns an in-process network for cfg.
func NewMemory(cfg MemoryConfig) *Memory {
	if cfg.Sites <= 0 || cfg.Sites > core.MaxSites {
		panic(fmt.Sprintf("transport: site count %d out of range", cfg.Sites))
	}
	return &Memory{
		cfg:       cfg,
		endpoints: make(map[core.SiteID]*memEndpoint),
		down:      make(map[linkKey]bool),
		credits:   make(map[linkKey]int),
	}
}

// Endpoint implements Network.
func (m *Memory) Endpoint(id core.SiteID) (Endpoint, error) {
	if !m.valid(id) {
		return nil, fmt.Errorf("%w: %s", ErrUnknownSite, id)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	return m.endpointLocked(id), nil
}

// endpointLocked returns id's endpoint, creating it if neither Endpoint nor
// a send to id has yet. Callers hold m.mu.
func (m *Memory) endpointLocked(id core.SiteID) *memEndpoint {
	ep, ok := m.endpoints[id]
	if !ok {
		ep = &memEndpoint{id: id, net: m, inbox: newQueue[memItem]()}
		m.endpoints[id] = ep
	}
	return ep
}

// Close implements Network.
func (m *Memory) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, ep := range m.endpoints {
		ep.inbox.close()
	}
	m.mu.Unlock()
	return nil
}

// MessagesSent returns the total number of messages accepted for delivery
// since the network was created. Experiments use it to report message
// complexity alongside elapsed time.
func (m *Memory) MessagesSent() uint64 { return m.sent.Load() }

// SetTracer installs a recorder that counts outbound messages per wire
// kind. A nil recorder disables counting.
func (m *Memory) SetTracer(r *trace.Recorder) { m.tracer.Store(r) }

// SetLinkDown makes the directed link from->to silently drop messages
// (true) or deliver normally (false). Used by tests and partition studies;
// the paper's experiments fail whole sites instead.
func (m *Memory) SetLinkDown(from, to core.SiteID, isDown bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if isDown {
		m.down[linkKey{from, to}] = true
	} else {
		delete(m.down, linkKey{from, to})
	}
}

// SetLinkDropAfter lets the directed link from->to deliver n more messages
// and then silently drop everything after — fault injection for mid-
// protocol failures (e.g. a participant that acks phase one and vanishes
// before phase two). A negative n removes the limit.
func (m *Memory) SetLinkDropAfter(from, to core.SiteID, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n < 0 {
		delete(m.credits, linkKey{from, to})
		return
	}
	m.credits[linkKey{from, to}] = n
}

func (m *Memory) valid(id core.SiteID) bool {
	return id == core.ManagingSite || int(id) < m.cfg.Sites
}

// send pushes encoded bytes onto to's inbox, creating the endpoint if
// nobody has requested it yet so no message is lost to start-up order.
func (m *Memory) send(from, to core.SiteID, buf []byte) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	key := linkKey{from, to}
	if m.down[key] {
		m.mu.Unlock()
		return nil // partitioned: silently dropped
	}
	if credits, limited := m.credits[key]; limited {
		if credits <= 0 {
			m.mu.Unlock()
			return nil // budget exhausted: silently dropped
		}
		m.credits[key] = credits - 1
	}
	ep := m.endpointLocked(to)
	m.mu.Unlock()
	// The send time is taken under the inbox's lock, so deadlines never
	// decrease along the inbox and Recv never holds one message past a
	// later one's deadline. Count only messages the inbox accepted: a push
	// that lost the race with Close must not inflate the experiments'
	// message-complexity columns.
	if ep.inbox.pushFunc(func() memItem { return memItem{buf: buf, at: time.Now()} }) {
		m.sent.Add(1)
	}
	return nil
}

type memEndpoint struct {
	id    core.SiteID
	net   *Memory
	inbox *queue[memItem]
}

// ID implements Endpoint.
func (ep *memEndpoint) ID() core.SiteID { return ep.id }

// Send implements Endpoint.
func (ep *memEndpoint) Send(env *msg.Envelope) error {
	if !ep.net.valid(env.To) {
		return fmt.Errorf("%w: %s", ErrUnknownSite, env.To)
	}
	env.From = ep.id
	ep.net.tracer.Load().CountMessage(env.Body.Kind().String())
	return ep.net.send(ep.id, env.To, msg.Marshal(env))
}

// Recv implements Endpoint. It holds the oldest message until Delay after
// its send and decodes it. Because every message in the inbox was sent no
// earlier than the one ahead of it, the hold pipelines: k messages sent
// together all arrive ~Delay after sending, not k×Delay, so Delay stays
// the paper's per-message latency rather than a bandwidth limit.
func (ep *memEndpoint) Recv() (*msg.Envelope, bool) {
	it, ok := ep.inbox.pop()
	if !ok {
		return nil, false
	}
	if d := ep.net.cfg.Delay - time.Since(it.at); d > 0 {
		time.Sleep(d)
	}
	env, err := msg.Unmarshal(it.buf)
	if err != nil {
		// A memory inbox cannot corrupt data; an error here is a
		// programming bug in the codec and must be loud.
		panic(fmt.Sprintf("transport: undecodable message in memory inbox: %v", err))
	}
	return env, true
}

// Close implements Endpoint.
func (ep *memEndpoint) Close() error {
	ep.inbox.close()
	return nil
}
