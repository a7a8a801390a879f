package transport

import "sync"

// queue is an unbounded FIFO of envelopes with blocking pop and close
// semantics. Senders never block, which rules out the queue-full deadlocks
// a bounded channel could introduce between sites that are simultaneously
// sending to each other; memory is bounded in practice by the protocol's
// request/response discipline.
//
// Storage is a head-indexed slice: pop reads items[head] and zeroes the
// slot (so delivered envelopes are released for GC immediately) instead of
// copy-shifting the whole backing slice, which made draining a burst of n
// queued messages O(n²). The dead prefix is reclaimed when the queue
// empties and folded away when the slice would otherwise grow.
type queue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []T
	head   int
	closed bool
}

func newQueue[T any]() *queue[T] {
	q := &queue[T]{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends an item. Pushing to a closed queue drops the item and
// reports false.
func (q *queue[T]) push(item T) bool { return q.pushFunc(func() T { return item }) }

// pushFunc appends the item mk returns, calling mk under the queue's lock
// so that whatever mk reads at the moment of the push, such as the time,
// is ordered as the queue is. Like push, it drops the item and reports
// false on a closed queue, without calling mk.
func (q *queue[T]) pushFunc(mk func() T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	if q.head > 0 && len(q.items) == cap(q.items) {
		// About to grow: fold the dead prefix away first so the backing
		// array only grows when there are genuinely more live items.
		n := copy(q.items, q.items[q.head:])
		clearTail(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, mk())
	q.cond.Signal()
	return true
}

// clearTail zeroes slots that held live items so their referents are not
// pinned by the backing array.
func clearTail[T any](s []T) {
	var zero T
	for i := range s {
		s[i] = zero
	}
}

// pop removes the oldest item, blocking while the queue is empty. It
// returns ok=false once the queue is closed and drained.
func (q *queue[T]) pop() (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed {
		q.cond.Wait()
	}
	if q.head == len(q.items) {
		var zero T
		return zero, false
	}
	item = q.items[q.head]
	// Zero the slot so the backing array does not pin the delivered
	// envelope.
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return item, true
}

// close marks the queue closed; blocked pops drain remaining items and then
// return ok=false.
func (q *queue[T]) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// len returns the current queue depth.
func (q *queue[T]) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}
