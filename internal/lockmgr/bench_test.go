package lockmgr

import (
	"testing"
	"time"

	"minraid/internal/core"
)

func BenchmarkUncontendedAcquireRelease(b *testing.B) {
	m := New(time.Second)
	defer m.Close()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		txn := core.TxnID(i + 1)
		if err := m.Acquire(txn, core.ItemID(i%64), Exclusive); err != nil {
			b.Fatal(err)
		}
		m.Release(txn)
	}
}

func BenchmarkAcquireAll(b *testing.B) {
	m := New(time.Second)
	defer m.Close()
	shared := []core.ItemID{1, 3, 5}
	exclusive := []core.ItemID{2, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		txn := core.TxnID(i + 1)
		if err := m.AcquireAll(txn, shared, exclusive); err != nil {
			b.Fatal(err)
		}
		m.Release(txn)
	}
}

func BenchmarkContendedHandoff(b *testing.B) {
	m := New(10 * time.Second)
	defer m.Close()
	const item = core.ItemID(7)
	b.ResetTimer()
	// IDs count down so each waiter is older than the holder it queues
	// behind (wait-die lets only older transactions wait).
	prev := core.TxnID(^uint64(0))
	if err := m.Acquire(prev, item, Exclusive); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		next := prev - 1
		done := make(chan error, 1)
		go func() { done <- m.Acquire(next, item, Exclusive) }()
		m.Release(prev)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
		prev = next
	}
	m.Release(prev)
}
