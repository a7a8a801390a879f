package lockmgr

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minraid/internal/core"
)

func TestSharedLocksCoexist(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	if err := m.Acquire(1, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 5, Shared); err != nil {
		t.Fatal(err)
	}
	if mode, ok := m.Holds(1, 5); !ok || mode != Shared {
		t.Errorf("txn 1 holds %v %v", mode, ok)
	}
	if mode, ok := m.Holds(2, 5); !ok || mode != Shared {
		t.Errorf("txn 2 holds %v %v", mode, ok)
	}
}

// mustDie asserts that txn's request fails with ErrDeadlock at once
// (wait-die), without leaving a queued request behind. Callers use a
// timeout of 10s or none, so dying within 500ms is well inside it.
func mustDie(t *testing.T, m *Manager, txn core.TxnID, item core.ItemID, mode Mode) {
	t.Helper()
	_, waitersBefore := m.Stats()
	start := time.Now()
	err := m.Acquire(txn, item, mode)
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("txn %d took %v to die", txn, elapsed)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("txn %d on item %d: err = %v, want ErrDeadlock", txn, item, err)
	}
	if _, waiters := m.Stats(); waiters != waitersBefore {
		t.Errorf("dying request left %d waiters, want %d", waiters, waitersBefore)
	}
}

// waitFor asserts that an acquisition blocks for a while, then returns a
// channel carrying its eventual result.
func waitFor(t *testing.T, m *Manager, txn core.TxnID, item core.ItemID, mode Mode) <-chan error {
	t.Helper()
	got := make(chan error, 1)
	go func() { got <- m.Acquire(txn, item, mode) }()
	select {
	case err := <-got:
		t.Fatalf("txn %d on item %d returned %v, want it to wait", txn, item, err)
	case <-time.After(20 * time.Millisecond):
	}
	return got
}

// granted asserts that a waiting acquisition completes without error.
func granted(t *testing.T, got <-chan error) {
	t.Helper()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("waiter never granted")
	}
}

// The holder is the youngest transaction, so both requests wait (wait-die
// lets older transactions wait) and run out the timeout.
func TestExclusiveBlocksOthers(t *testing.T) {
	m := New(50 * time.Millisecond)
	defer m.Close()
	if err := m.Acquire(3, 3, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, 3, Shared); !errors.Is(err, ErrTimeout) {
		t.Errorf("shared under exclusive: %v", err)
	}
	if err := m.Acquire(1, 3, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Errorf("exclusive under exclusive: %v", err)
	}
}

func TestReleaseWakesWaiter(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(2, 7, Exclusive)
	got := waitFor(t, m, 1, 7, Exclusive) // older waiter
	m.Release(2)
	granted(t, got)
	if _, ok := m.Holds(2, 7); ok {
		t.Error("released lock still held")
	}
	if mode, ok := m.Holds(1, 7); !ok || mode != Exclusive {
		t.Error("waiter did not get the lock")
	}
}

func TestReacquireIsNoop(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	m.Acquire(1, 1, Exclusive)
	if err := m.Acquire(1, 1, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(1, 1, Shared); err != nil {
		t.Fatal(err)
	}
	// Still exclusive after the weaker re-acquire.
	if mode, _ := m.Holds(1, 1); mode != Exclusive {
		t.Error("downgraded")
	}
}

func TestUpgradeSoleHolder(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	m.Acquire(1, 2, Shared)
	if err := m.Acquire(1, 2, Exclusive); err != nil {
		t.Fatal(err)
	}
	if mode, _ := m.Holds(1, 2); mode != Exclusive {
		t.Error("upgrade did not take")
	}
}

func TestUpgradeWaitsForReaders(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(1, 2, Shared)
	m.Acquire(2, 2, Shared)
	got := make(chan error, 1)
	go func() { got <- m.Acquire(1, 2, Exclusive) }()
	select {
	case <-got:
		t.Fatal("upgrade granted with another reader present")
	case <-time.After(30 * time.Millisecond):
	}
	m.Release(2)
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("upgrade never granted")
	}
}

func TestFIFOFairnessNoReaderOvertaking(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(3, 4, Shared)
	// An older writer queues behind the reader.
	writerDone := waitFor(t, m, 2, 4, Exclusive)
	// A new, still older reader must NOT overtake the queued writer.
	readerDone := waitFor(t, m, 1, 4, Shared)
	m.Release(3)
	granted(t, writerDone)
	select {
	case <-readerDone:
		t.Fatal("late reader overtook queued writer (writer starvation)")
	case <-time.After(30 * time.Millisecond):
	}
	m.Release(2)
	granted(t, readerDone)
}

func TestDeadlockDetected(t *testing.T) {
	m := New(10 * time.Second)
	defer m.Close()
	m.Acquire(1, 10, Exclusive)
	m.Acquire(2, 20, Exclusive)
	r1 := waitFor(t, m, 1, 20, Exclusive) // older 1 waits on 2
	// Younger 2 would close the cycle: it dies at once instead of waiting.
	mustDie(t, m, 2, 10, Exclusive)
	m.Release(2)
	granted(t, r1)
}

func TestThreeWayDeadlock(t *testing.T) {
	m := New(10 * time.Second)
	defer m.Close()
	m.Acquire(1, 1, Exclusive)
	m.Acquire(2, 2, Exclusive)
	m.Acquire(3, 3, Exclusive)
	r1 := waitFor(t, m, 1, 2, Exclusive)
	r2 := waitFor(t, m, 2, 3, Exclusive)
	// Txn 3 would close the cycle behind the oldest holder: it dies, and
	// its release lets the chain drain in age order.
	mustDie(t, m, 3, 1, Exclusive)
	m.Release(3)
	granted(t, r2)
	m.Release(2)
	granted(t, r1)
}

// An older request waits behind a younger holder (and behind younger
// queued requests) and is granted once they release; a request younger
// than a queued waiter dies even though it is older than the holder.
func TestOlderWaitsForYounger(t *testing.T) {
	m := New(10 * time.Second)
	defer m.Close()
	if err := m.Acquire(5, 8, Exclusive); err != nil {
		t.Fatal(err)
	}
	r3 := waitFor(t, m, 3, 8, Exclusive)
	mustDie(t, m, 4, 8, Shared) // txn 3 is queued and older
	r1 := waitFor(t, m, 1, 8, Shared)
	m.Release(5)
	granted(t, r3)
	m.Release(3)
	granted(t, r1)
	if mode, ok := m.Holds(1, 8); !ok || mode != Shared {
		t.Errorf("txn 1 holds %v %v", mode, ok)
	}
}

// An upgrade dies when another holder of the item is older, and the
// failed upgrade leaves the shared lock in place.
func TestUpgradeDiesBehindOlderHolder(t *testing.T) {
	m := New(10 * time.Second)
	defer m.Close()
	m.Acquire(1, 2, Shared)
	m.Acquire(2, 2, Shared)
	mustDie(t, m, 2, 2, Exclusive)
	if mode, ok := m.Holds(2, 2); !ok || mode != Shared {
		t.Errorf("txn 2 holds %v %v after failed upgrade", mode, ok)
	}
	// The older holder's upgrade waits for the younger reader instead.
	r1 := waitFor(t, m, 1, 2, Exclusive)
	m.Release(2)
	granted(t, r1)
}

func TestAcquireAllOrdersItems(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	if err := m.AcquireAll(1, []core.ItemID{9, 3}, []core.ItemID{5, 3}); err != nil {
		t.Fatal(err)
	}
	// Item 3 appears in both sets: exclusive wins.
	if mode, _ := m.Holds(1, 3); mode != Exclusive {
		t.Error("write-set item not exclusive")
	}
	if mode, _ := m.Holds(1, 9); mode != Shared {
		t.Error("read-set item not shared")
	}
	if mode, _ := m.Holds(1, 5); mode != Exclusive {
		t.Error("exclusive item wrong")
	}
}

func TestCloseFailsWaiters(t *testing.T) {
	m := New(10 * time.Second)
	m.Acquire(2, 1, Exclusive)
	got := waitFor(t, m, 1, 1, Exclusive) // older waiter
	m.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake waiter")
	}
	if err := m.Acquire(3, 2, Shared); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close: %v", err)
	}
	m.Close() // idempotent
}

func TestReleaseWithoutLocksIsNoop(t *testing.T) {
	m := New(time.Second)
	defer m.Close()
	m.Release(42)
	locked, waiters := m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("stats = %d %d", locked, waiters)
	}
}

func TestStats(t *testing.T) {
	m := New(5 * time.Second)
	defer m.Close()
	m.Acquire(2, 1, Exclusive)
	m.Acquire(2, 2, Shared)
	got := waitFor(t, m, 1, 1, Shared) // older waiter
	locked, waiters := m.Stats()
	if locked != 2 || waiters != 1 {
		t.Errorf("stats = %d locked, %d waiting", locked, waiters)
	}
	m.Release(2)
	granted(t, got)
	m.Release(1)
	locked, waiters = m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("after release: %d %d (lock table must shrink)", locked, waiters)
	}
}

// Stress: random transactions over a small item space with 2PL discipline
// never corrupt a guarded counter array, and the manager survives
// deadlock storms.
func TestStressSerializability(t *testing.T) {
	const (
		workers = 8
		items   = 6
		rounds  = 150
	)
	m := New(2 * time.Second)
	defer m.Close()
	var data [items]int64 // guarded by item locks
	var txnSeq atomic.Uint64
	var wg sync.WaitGroup
	var deadlocks atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for r := 0; r < rounds; r++ {
				txn := core.TxnID(txnSeq.Add(1))
				a := core.ItemID(rng.Intn(items))
				b := core.ItemID(rng.Intn(items))
				if a == b {
					continue // a self-transfer would double-assign data[a]
				}
				err := m.AcquireAll(txn, nil, []core.ItemID{a, b})
				if err != nil {
					m.Release(txn)
					if errors.Is(err, ErrDeadlock) || errors.Is(err, ErrTimeout) {
						deadlocks.Add(1)
						continue
					}
					t.Error(err)
					return
				}
				// Critical section: transfer between a and b. Any lock
				// bug shows up as a torn read-modify-write under -race.
				va, vb := data[a], data[b]
				data[a], data[b] = va-1, vb+1
				m.Release(txn)
			}
		}(int64(w + 1))
	}
	wg.Wait()
	var sum int64
	for _, v := range data {
		sum += v
	}
	if sum != 0 {
		t.Errorf("conservation violated: sum = %d", sum)
	}
	locked, waiters := m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("leaked locks: %d items, %d waiters", locked, waiters)
	}
}
