package transport

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

func commitEnv(to core.SiteID, txn core.TxnID, seq uint64) *msg.Envelope {
	return &msg.Envelope{To: to, Seq: seq, Body: &msg.Commit{Txn: txn}}
}

func TestQueueFIFO(t *testing.T) {
	q := newQueue[int]()
	for i := 0; i < 100; i++ {
		if !q.push(i) {
			t.Fatal("push failed on open queue")
		}
	}
	if q.len() != 100 {
		t.Fatalf("len = %d", q.len())
	}
	for i := 0; i < 100; i++ {
		v, ok := q.pop()
		if !ok || v != i {
			t.Fatalf("pop %d = %d,%v", i, v, ok)
		}
	}
}

func TestQueueCloseDrains(t *testing.T) {
	q := newQueue[int]()
	q.push(1)
	q.push(2)
	q.close()
	if q.push(3) {
		t.Error("push on closed queue succeeded")
	}
	if v, ok := q.pop(); !ok || v != 1 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if v, ok := q.pop(); !ok || v != 2 {
		t.Errorf("pop = %d,%v", v, ok)
	}
	if _, ok := q.pop(); ok {
		t.Error("pop after drain returned ok")
	}
}

func TestQueueBlockingPop(t *testing.T) {
	q := newQueue[int]()
	done := make(chan int, 1)
	go func() {
		v, _ := q.pop()
		done <- v
	}()
	time.Sleep(10 * time.Millisecond)
	q.push(7)
	select {
	case v := <-done:
		if v != 7 {
			t.Errorf("popped %d", v)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked pop never woke")
	}
}

func TestMemorySendRecv(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, err := net.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(commitEnv(1, 9, 1)); err != nil {
		t.Fatal(err)
	}
	env, ok := b.Recv()
	if !ok {
		t.Fatal("recv failed")
	}
	if env.From != 0 || env.To != 1 || env.Body.(*msg.Commit).Txn != 9 {
		t.Errorf("got %v", env)
	}
	if net.MessagesSent() != 1 {
		t.Errorf("MessagesSent = %d", net.MessagesSent())
	}
}

func TestMemoryPerLinkFIFO(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	const n = 500
	for i := 0; i < n; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		env, ok := b.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		if got := env.Body.(*msg.Commit).Txn; got != core.TxnID(i) {
			t.Fatalf("message %d arrived as txn %d: order violated", i, got)
		}
	}
}

func TestMemoryIsolation(t *testing.T) {
	// Messages are serialized; mutating the sent body must not affect the
	// received copy.
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	body := &msg.ClientTxn{Txn: 1, Ops: []core.Op{core.Write(0, []byte{1})}}
	if err := a.Send(&msg.Envelope{To: 1, Seq: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	body.Ops[0].Value[0] = 99
	env, _ := b.Recv()
	if got := env.Body.(*msg.ClientTxn).Ops[0].Value[0]; got != 1 {
		t.Errorf("receiver saw mutated value %d", got)
	}
}

func TestMemoryManagingSiteEndpoint(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 1})
	defer net.Close()
	mgr, err := net.Endpoint(core.ManagingSite)
	if err != nil {
		t.Fatal(err)
	}
	s0, _ := net.Endpoint(0)
	if err := mgr.Send(&msg.Envelope{To: 0, Seq: 1, Body: &msg.FailSim{}}); err != nil {
		t.Fatal(err)
	}
	env, _ := s0.Recv()
	if env.From != core.ManagingSite {
		t.Errorf("From = %v", env.From)
	}
	if err := s0.Send(&msg.Envelope{To: core.ManagingSite, Seq: 1, Body: &msg.CtrlFailAck{}}); err != nil {
		t.Fatal(err)
	}
	if env, ok := mgr.Recv(); !ok || env.From != 0 {
		t.Errorf("managing recv = %v %v", env, ok)
	}
}

func TestMemoryUnknownSite(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	if _, err := net.Endpoint(5); err == nil {
		t.Error("endpoint for unknown site granted")
	}
	a, _ := net.Endpoint(0)
	if err := a.Send(commitEnv(9, 1, 1)); err == nil {
		t.Error("send to unknown site accepted")
	}
}

func TestMemoryEndpointIdempotent(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 1})
	defer net.Close()
	a1, _ := net.Endpoint(0)
	a2, _ := net.Endpoint(0)
	if a1 != a2 {
		t.Error("Endpoint returned distinct instances")
	}
}

func TestMemoryCloseUnblocksRecv(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 1})
	a, _ := net.Endpoint(0)
	done := make(chan bool, 1)
	go func() {
		_, ok := a.Recv()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	net.Close()
	select {
	case ok := <-done:
		if ok {
			t.Error("Recv returned ok after close")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv never unblocked")
	}
	if err := a.Send(commitEnv(0, 1, 1)); err != ErrClosed {
		t.Errorf("send after close: %v", err)
	}
	if _, err := net.Endpoint(0); err != ErrClosed {
		t.Errorf("endpoint after close: %v", err)
	}
	if err := net.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestMemoryDelay(t *testing.T) {
	const d = 20 * time.Millisecond
	net := NewMemory(MemoryConfig{Sites: 2, Delay: d})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	start := time.Now()
	a.Send(commitEnv(1, 1, 1))
	if _, ok := b.Recv(); !ok {
		t.Fatal("recv failed")
	}
	if got := time.Since(start); got < d {
		t.Errorf("delivery took %v, want >= %v", got, d)
	}
}

func TestMemoryLinkDown(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	net.SetLinkDown(0, 1, true)
	if err := a.Send(commitEnv(1, 1, 1)); err != nil {
		t.Fatalf("send on down link errored: %v", err)
	}
	// Reverse direction still works.
	if err := b.Send(commitEnv(0, 2, 1)); err != nil {
		t.Fatal(err)
	}
	env, _ := a.Recv()
	if env.Body.(*msg.Commit).Txn != 2 {
		t.Error("reverse link broken")
	}
	net.SetLinkDown(0, 1, false)
	a.Send(commitEnv(1, 3, 2))
	env, _ = b.Recv()
	if env.Body.(*msg.Commit).Txn != 3 {
		t.Errorf("restored link delivered txn %d (the dropped message leaked?)", env.Body.(*msg.Commit).Txn)
	}
}

func TestMemoryConcurrentSenders(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 4})
	defer net.Close()
	dst, _ := net.Endpoint(3)
	const perSender = 200
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		ep, _ := net.Endpoint(core.SiteID(s))
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				ep.Send(commitEnv(3, core.TxnID(i), uint64(i+1)))
			}
		}(ep)
	}
	wg.Wait()
	// All messages arrive; per-sender order is preserved.
	next := map[core.SiteID]core.TxnID{}
	for i := 0; i < 3*perSender; i++ {
		env, ok := dst.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		want := next[env.From]
		if got := env.Body.(*msg.Commit).Txn; got != want {
			t.Fatalf("sender %v: got txn %d, want %d", env.From, got, want)
		}
		next[env.From]++
	}
}

func TestMemoryBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-site config accepted")
		}
	}()
	NewMemory(MemoryConfig{Sites: 0})
}

// TestMemoryDelayPipelinesFanIn checks that Delay stays a per-message
// latency when several senders share one destination inbox: a burst from
// three senders all arrives about one Delay after sending, not one Delay
// per queued message, and each sender's order is kept.
func TestMemoryDelayPipelinesFanIn(t *testing.T) {
	const (
		d         = 20 * time.Millisecond
		senders   = 3
		perSender = 20
	)
	net := NewMemory(MemoryConfig{Sites: senders + 1, Delay: d})
	defer net.Close()
	dst, _ := net.Endpoint(senders)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		ep, _ := net.Endpoint(core.SiteID(s))
		wg.Add(1)
		go func(ep Endpoint) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				ep.Send(commitEnv(senders, core.TxnID(i), uint64(i+1)))
			}
		}(ep)
	}
	wg.Wait()
	next := map[core.SiteID]core.TxnID{}
	for i := 0; i < senders*perSender; i++ {
		env, ok := dst.Recv()
		if !ok {
			t.Fatal("recv failed")
		}
		if got, want := env.Body.(*msg.Commit).Txn, next[env.From]; got != want {
			t.Fatalf("sender %v: got txn %d, want %d", env.From, got, want)
		}
		next[env.From]++
	}
	if got := time.Since(start); got < d || got > 2*d {
		t.Errorf("%d messages took %v to arrive, want between %v and %v", senders*perSender, got, d, 2*d)
	}
}

// TestMemoryStartsNoLinkGoroutines checks that delivery needs no goroutine
// per directed link: using every link of a 4-site network plus the
// managing site leaves the goroutine count where it was.
func TestMemoryStartsNoLinkGoroutines(t *testing.T) {
	const sites = 4
	net := NewMemory(MemoryConfig{Sites: sites})
	defer net.Close()
	ids := []core.SiteID{core.ManagingSite}
	for s := 0; s < sites; s++ {
		ids = append(ids, core.SiteID(s))
	}
	eps := map[core.SiteID]Endpoint{}
	for _, id := range ids {
		eps[id], _ = net.Endpoint(id)
	}
	before := runtime.NumGoroutine()
	links := 0
	for _, from := range ids {
		for _, to := range ids {
			if from == to {
				continue
			}
			if err := eps[from].Send(commitEnv(to, 1, 1)); err != nil {
				t.Fatal(err)
			}
			if env, ok := eps[to].Recv(); !ok || env.From != from {
				t.Fatalf("link %v->%v delivered %v, %v", from, to, env, ok)
			}
			links++
		}
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("goroutines went from %d to %d over %d links", before, after, links)
	}
}

func TestMemoryCloseDrainsAcceptedMessages(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2, Delay: 5 * time.Millisecond})
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	for i := 0; i < 3; i++ {
		if err := a.Send(commitEnv(1, core.TxnID(i), uint64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	net.Close()
	for i := 0; i < 3; i++ {
		env, ok := b.Recv()
		if !ok {
			t.Fatalf("message %d accepted before Close was lost", i)
		}
		if got := env.Body.(*msg.Commit).Txn; got != core.TxnID(i) {
			t.Fatalf("message %d arrived as txn %d", i, got)
		}
	}
	if _, ok := b.Recv(); ok {
		t.Error("Recv returned ok after the drained inbox closed")
	}
}

func TestMemoryDroppedMessagesNotCounted(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	b, _ := net.Endpoint(1)
	net.SetLinkDown(0, 1, true)
	a.Send(commitEnv(1, 1, 1))
	net.SetLinkDown(0, 1, false)
	net.SetLinkDropAfter(0, 1, 1)
	a.Send(commitEnv(1, 2, 2))
	a.Send(commitEnv(1, 3, 3)) // over budget: dropped
	if got := net.MessagesSent(); got != 1 {
		t.Errorf("MessagesSent = %d, want 1 (only the in-budget message)", got)
	}
	if env, _ := b.Recv(); env.Body.(*msg.Commit).Txn != 2 {
		t.Errorf("delivered txn %d, want 2", env.Body.(*msg.Commit).Txn)
	}
}

func TestMemorySendBeforeEndpointRequested(t *testing.T) {
	net := NewMemory(MemoryConfig{Sites: 2})
	defer net.Close()
	a, _ := net.Endpoint(0)
	if err := a.Send(commitEnv(1, 7, 1)); err != nil {
		t.Fatal(err)
	}
	b, err := net.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	env, ok := b.Recv()
	if !ok || env.From != 0 || env.Body.(*msg.Commit).Txn != 7 {
		t.Errorf("recv = %v, %v; want txn 7 from site 0", env, ok)
	}
}
