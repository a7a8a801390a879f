// Package lockmgr implements a strict two-phase-locking lock manager with
// shared/exclusive item locks, lock upgrades, FIFO fairness, wait-die
// deadlock prevention and acquisition timeouts.
//
// The paper's mini-RAID deliberately factored concurrency control out
// ("our system did not include concurrency control and transactions were
// processed serially", §1.2, assumption 2) and names re-running the
// protocol "taking into account ... concurrency control" as future work
// (§5). This package is that substrate: the complete-RAID integration
// point for interleaved transaction execution. Its concept of a lock also
// anchors the paper's fail-lock analogy ("this idea is adopted from the
// concept of a lock in concurrency control algorithms", §1.1).
//
// Deadlocks are prevented, not detected: wait-die on TxnID. A
// transaction's age is its TxnID (lower is older); IDs are global, so
// every site agrees on it. A request that cannot be granted waits only if
// it is older than every other holder and queued request of the item;
// otherwise it fails at once with ErrDeadlock. Every wait edge therefore
// points from an older to a younger transaction, at every site, and no
// waits-for cycle can form, local or across sites. Counting every other
// holder and queued request, not only conflicting ones, keeps the rule
// sound for upgrades and FIFO head-of-line waits. Scrub batches draw IDs
// from 3<<32, above every foreground ID, so they are always the youngest:
// they die rather than delay a foreground writer. The acquisition
// timeout remains only as a backstop for a slow or stalled holder (for
// example a participant whose coordinator died before its decision).
//
// The lock table is sharded into stripes keyed by item hash, so
// transactions touching disjoint items take disjoint mutexes and the
// manager scales with the concurrency degree instead of serializing every
// grant behind one lock. Grants, releases, timeouts and wait-die checks
// touch only the item's stripe; only Stats and Close lock every stripe.
package lockmgr

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
)

// Mode is a lock mode.
type Mode uint8

const (
	// Shared permits concurrent readers.
	Shared Mode = iota
	// Exclusive permits one writer.
	Exclusive
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Errors returned by Acquire.
var (
	// ErrDeadlock is returned, without waiting, to a request that would
	// have to wait behind an older transaction (wait-die). The victim
	// should release its locks and retry.
	ErrDeadlock = errors.New("lockmgr: deadlock victim")
	// ErrTimeout is returned when the lock was not granted in time.
	ErrTimeout = errors.New("lockmgr: acquisition timed out")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("lockmgr: closed")
)

// defaultStripes is the lock-table shard count. Power of two so stripe
// selection is a mask; 16 comfortably exceeds plausible ConcurrentTxns
// degrees while keeping the all-stripes Stats and Close sweeps cheap.
const defaultStripes = 16

// maxStripes caps the shard count so a transaction's touched-stripe set
// fits in one uint64 bitmask.
const maxStripes = 64

// txnShards shards the touched-stripe index by transaction ID, so
// recording a touch doesn't reintroduce a global mutex.
const txnShards = 16

// request is one waiting acquisition.
type request struct {
	txn   core.TxnID
	item  core.ItemID // the item whose queue holds this request
	mode  Mode
	ready chan error // buffered(1); nil error = granted
}

// lockState is the per-item lock table entry.
type lockState struct {
	holders map[core.TxnID]Mode
	queue   []*request
}

// stripe is one shard of the lock table. Its mutex guards every field;
// cross-stripe operations lock stripes in index order.
type stripe struct {
	mu    sync.Mutex
	items map[core.ItemID]*lockState
	held  map[core.TxnID]map[core.ItemID]Mode // reverse index, this stripe's items only
	waits map[core.TxnID]*request             // at most one wait per txn globally
}

// txnShard is one shard of the touched-stripe index: for each live
// transaction, a bitmask of the stripes it has acquired (or queued) on,
// so Release visits only those stripes instead of all of them.
type txnShard struct {
	mu      sync.Mutex
	touched map[core.TxnID]uint64
}

// Manager is a strict-2PL lock manager. All methods are safe for
// concurrent use. Locks are held until Release(txn) — strictness — so
// cascading aborts cannot occur.
type Manager struct {
	stripes []*stripe
	txns    [txnShards]txnShard
	timeout time.Duration
	closed  atomic.Bool
}

// New returns a manager with the given acquisition timeout (0 means wait
// forever: wait-die rules out deadlock, so only a holder that never
// releases can block a waiter) and the default stripe count.
func New(timeout time.Duration) *Manager {
	return NewSharded(timeout, defaultStripes)
}

// NewSharded returns a manager with an explicit stripe count, rounded up
// to a power of two, at least 1 and at most 64 (the touched-stripe
// bitmask width). A single stripe reproduces the original
// fully-serialized table (useful for comparison benchmarks).
func NewSharded(timeout time.Duration, stripes int) *Manager {
	n := 1
	for n < stripes && n < maxStripes {
		n <<= 1
	}
	m := &Manager{stripes: make([]*stripe, n), timeout: timeout}
	for i := range m.stripes {
		m.stripes[i] = &stripe{
			items: make(map[core.ItemID]*lockState),
			held:  make(map[core.TxnID]map[core.ItemID]Mode),
			waits: make(map[core.TxnID]*request),
		}
	}
	for i := range m.txns {
		m.txns[i].touched = make(map[core.TxnID]uint64)
	}
	return m
}

// stripeIdx hashes an item to its stripe index. The multiplier is the
// splitmix64 increment (odd, well-distributed), so adjacent item IDs land
// on different stripes.
func (m *Manager) stripeIdx(item core.ItemID) int {
	h := uint64(item) * 0x9E3779B97F4A7C15
	return int((h >> 32) & uint64(len(m.stripes)-1))
}

// stripeFor returns the stripe holding item's lock state.
func (m *Manager) stripeFor(item core.ItemID) *stripe {
	return m.stripes[m.stripeIdx(item)]
}

// markTouched records that txn has acquired or queued on stripe idx.
func (m *Manager) markTouched(txn core.TxnID, idx int) {
	sh := &m.txns[uint64(txn)%txnShards]
	sh.mu.Lock()
	sh.touched[txn] |= 1 << idx
	sh.mu.Unlock()
}

// takeTouched returns and clears txn's touched-stripe bitmask.
func (m *Manager) takeTouched(txn core.TxnID) uint64 {
	sh := &m.txns[uint64(txn)%txnShards]
	sh.mu.Lock()
	mask := sh.touched[txn]
	delete(sh.touched, txn)
	sh.mu.Unlock()
	return mask
}

// lockAll locks every stripe in index order (the canonical order that
// makes concurrent Stats and Close calls mutually deadlock-free).
func (m *Manager) lockAll() {
	for _, s := range m.stripes {
		s.mu.Lock()
	}
}

// unlockAll releases every stripe.
func (m *Manager) unlockAll() {
	for _, s := range m.stripes {
		s.mu.Unlock()
	}
}

// Acquire obtains item in mode for txn, blocking until granted, timeout or
// Close, or failing at once with ErrDeadlock when an older transaction
// holds or awaits item. Re-acquiring a held lock is a no-op; acquiring
// Exclusive over a held Shared upgrades (waiting for younger readers to
// drain).
func (m *Manager) Acquire(txn core.TxnID, item core.ItemID, mode Mode) error {
	idx := m.stripeIdx(item)
	st := m.stripes[idx]
	// Recorded before grant/queue so Release always sees the stripe even
	// if it races a timed-out acquisition.
	m.markTouched(txn, idx)
	st.mu.Lock()
	if m.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	ls := st.lockState(item)

	if cur, ok := ls.holders[txn]; ok {
		if cur == Exclusive || mode == Shared {
			st.mu.Unlock()
			return nil // already strong enough
		}
		// Upgrade request: proceed to queue with upgrade semantics.
	}

	if st.grantable(ls, txn, mode) {
		st.grant(ls, txn, item, mode)
		st.mu.Unlock()
		return nil
	}

	// Wait-die: only an older transaction may wait. A younger one dies
	// at once if any other holder or queued request is older, so every
	// wait edge points from older to younger and no cycle can form.
	if ls.hasOlder(txn) {
		st.mu.Unlock()
		return fmt.Errorf("%w: txn %d on item %d (%s)", ErrDeadlock, txn, item, mode)
	}
	req := &request{txn: txn, item: item, mode: mode, ready: make(chan error, 1)}
	ls.queue = append(ls.queue, req)
	st.waits[txn] = req
	st.mu.Unlock()

	var timeoutCh <-chan time.Time
	if m.timeout > 0 {
		t := time.NewTimer(m.timeout)
		defer t.Stop()
		timeoutCh = t.C
	}
	select {
	case err := <-req.ready:
		return err
	case <-timeoutCh:
		st.mu.Lock()
		// Re-check: the grant may have raced the timer.
		select {
		case err := <-req.ready:
			st.mu.Unlock()
			return err
		default:
		}
		st.dropWaiter(req)
		st.mu.Unlock()
		return fmt.Errorf("%w: txn %d on item %d (%s)", ErrTimeout, txn, item, mode)
	}
}

// AcquireAll takes locks for a whole read/write set in ascending item
// order (a canonical order removes one class of deadlocks). On any error,
// locks already held by txn are NOT released; call Release.
func (m *Manager) AcquireAll(txn core.TxnID, shared, exclusive []core.ItemID) error {
	type want struct {
		item core.ItemID
		mode Mode
	}
	var wants []want
	ex := make(map[core.ItemID]bool, len(exclusive))
	for _, it := range exclusive {
		if !ex[it] {
			ex[it] = true
			wants = append(wants, want{it, Exclusive})
		}
	}
	for _, it := range shared {
		if !ex[it] {
			wants = append(wants, want{it, Shared})
		}
	}
	for i := 1; i < len(wants); i++ {
		for j := i; j > 0 && wants[j].item < wants[j-1].item; j-- {
			wants[j], wants[j-1] = wants[j-1], wants[j]
		}
	}
	for _, w := range wants {
		if err := m.Acquire(txn, w.item, w.mode); err != nil {
			return err
		}
	}
	return nil
}

// Release drops every lock txn holds and cancels any wait, waking queued
// transactions that become grantable. Strict 2PL: call exactly once, at
// commit or abort.
func (m *Manager) Release(txn core.TxnID) {
	mask := m.takeTouched(txn)
	for i, st := range m.stripes {
		if mask&(1<<i) == 0 {
			continue
		}
		st.mu.Lock()
		if req, ok := st.waits[txn]; ok {
			st.dropWaiter(req)
		}
		items := st.held[txn]
		delete(st.held, txn)
		for item := range items {
			ls := st.items[item]
			delete(ls.holders, txn)
			st.promote(ls, item)
			if len(ls.holders) == 0 && len(ls.queue) == 0 {
				delete(st.items, item)
			}
		}
		st.mu.Unlock()
	}
}

// Holds reports the mode txn holds on item, if any.
func (m *Manager) Holds(txn core.TxnID, item core.ItemID) (Mode, bool) {
	st := m.stripeFor(item)
	st.mu.Lock()
	defer st.mu.Unlock()
	mode, ok := st.held[txn][item]
	return mode, ok
}

// Stats returns the number of locked items and waiting transactions.
func (m *Manager) Stats() (lockedItems, waiters int) {
	m.lockAll()
	defer m.unlockAll()
	for _, st := range m.stripes {
		lockedItems += len(st.items)
		waiters += len(st.waits)
	}
	return lockedItems, waiters
}

// Close fails every waiter with ErrClosed and rejects future acquisitions.
func (m *Manager) Close() {
	if m.closed.Swap(true) {
		return
	}
	m.lockAll()
	defer m.unlockAll()
	for _, st := range m.stripes {
		for _, req := range st.waits {
			req.ready <- ErrClosed
		}
		st.waits = make(map[core.TxnID]*request)
		for _, ls := range st.items {
			ls.queue = nil
		}
	}
}

// lockState returns (creating if needed) the entry for item; callers hold
// the stripe mutex.
func (st *stripe) lockState(item core.ItemID) *lockState {
	ls, ok := st.items[item]
	if !ok {
		ls = &lockState{holders: make(map[core.TxnID]Mode)}
		st.items[item] = ls
	}
	return ls
}

// grantable reports whether txn could hold item in mode right now,
// ignoring the queue (queue fairness is handled by promote). Callers hold
// the stripe mutex.
func (st *stripe) grantable(ls *lockState, txn core.TxnID, mode Mode) bool {
	// Fairness: a new shared request must not overtake a queued upgrade
	// or exclusive request (starvation).
	if len(ls.queue) > 0 {
		// Exception: an upgrade by the sole holder bypasses the queue
		// check below via the holders loop.
		if _, holder := ls.holders[txn]; !holder {
			return false
		}
	}
	for other, otherMode := range ls.holders {
		if other == txn {
			continue
		}
		if mode == Exclusive || otherMode == Exclusive {
			return false
		}
	}
	return true
}

// grant records txn holding item in mode. Callers hold the stripe mutex.
func (st *stripe) grant(ls *lockState, txn core.TxnID, item core.ItemID, mode Mode) {
	if cur, ok := ls.holders[txn]; !ok || mode == Exclusive || cur == Exclusive {
		if cur, ok := ls.holders[txn]; ok && cur == Exclusive {
			mode = Exclusive // never downgrade
		}
		ls.holders[txn] = mode
	}
	held := st.held[txn]
	if held == nil {
		held = make(map[core.ItemID]Mode)
		st.held[txn] = held
	}
	if cur, ok := held[item]; !ok || cur != Exclusive {
		held[item] = ls.holders[txn]
	}
}

// promote grants queued requests that have become compatible, in FIFO
// order, stopping at the first that still conflicts (head-of-line
// blocking preserves fairness). Upgrades are considered regardless of
// position, since they block on other holders, not on the queue. Callers
// hold the stripe mutex.
func (st *stripe) promote(ls *lockState, item core.ItemID) {
	for {
		advanced := false
		// First: any waiting upgrade whose only blockers are gone.
		for i, req := range ls.queue {
			if _, holder := ls.holders[req.txn]; holder && compatibleIgnoringSelf(ls, req) {
				st.grant(ls, req.txn, item, req.mode)
				ls.queue = append(ls.queue[:i:i], ls.queue[i+1:]...)
				delete(st.waits, req.txn)
				req.ready <- nil
				advanced = true
				break
			}
		}
		if advanced {
			continue
		}
		// Then: FIFO head.
		if len(ls.queue) == 0 {
			return
		}
		head := ls.queue[0]
		if !compatibleIgnoringSelf(ls, head) {
			return
		}
		st.grant(ls, head.txn, item, head.mode)
		ls.queue = ls.queue[1:]
		delete(st.waits, head.txn)
		head.ready <- nil
	}
}

// hasOlder reports whether any holder or queued request other than txn's
// own belongs to an older (lower-ID) transaction. Callers hold the stripe
// mutex.
func (ls *lockState) hasOlder(txn core.TxnID) bool {
	for other := range ls.holders {
		if other < txn {
			return true
		}
	}
	for _, req := range ls.queue {
		if req.txn < txn {
			return true
		}
	}
	return false
}

// compatibleIgnoringSelf reports whether req conflicts with any holder
// other than its own transaction. Callers hold the stripe mutex.
func compatibleIgnoringSelf(ls *lockState, req *request) bool {
	for other, otherMode := range ls.holders {
		if other == req.txn {
			continue
		}
		if req.mode == Exclusive || otherMode == Exclusive {
			return false
		}
	}
	return true
}

// dropWaiter removes a request from its item's queue and the wait index.
// Callers hold the stripe mutex of the request's item.
func (st *stripe) dropWaiter(req *request) {
	delete(st.waits, req.txn)
	ls, ok := st.items[req.item]
	if !ok {
		return
	}
	for i, q := range ls.queue {
		if q == req {
			ls.queue = append(ls.queue[:i:i], ls.queue[i+1:]...)
			// Removing a waiter can unblock the queue behind it.
			st.promote(ls, req.item)
			return
		}
	}
}
