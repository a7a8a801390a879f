package lockmgr

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"minraid/internal/core"
)

// TestStripeCountRounding checks NewSharded's power-of-two rounding and
// the single-stripe degenerate case.
func TestStripeCountRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {16, 16}, {17, 32},
	} {
		m := NewSharded(0, tc.in)
		if len(m.stripes) != tc.want {
			t.Errorf("NewSharded(%d) has %d stripes, want %d", tc.in, len(m.stripes), tc.want)
		}
	}
}

// TestCrossStripeDeadlock attempts a cycle whose two items live on
// different stripes. Wait-die needs no cross-stripe view: the younger
// transaction dies on the second item's stripe alone.
func TestCrossStripeDeadlock(t *testing.T) {
	m := NewSharded(0, 8) // no timeout: only wait-die can break the cycle
	defer m.Close()

	// Find two items on different stripes.
	a := core.ItemID(0)
	b := a + 1
	for m.stripeFor(a) == m.stripeFor(b) {
		b++
	}

	if err := m.Acquire(1, a, Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, b, Exclusive); err != nil {
		t.Fatal(err)
	}
	r1 := waitFor(t, m, 1, b, Exclusive)
	mustDie(t, m, 2, a, Exclusive)
	// The survivor completes once the victim releases.
	m.Release(2)
	granted(t, r1)
}

// TestStripedStress hammers the striped table from many goroutines over
// many items, checking mutual exclusion of exclusive locks. Run with
// -race this also proves stripe handoff is race-clean.
func TestStripedStress(t *testing.T) {
	m := New(200 * time.Millisecond)
	defer m.Close()
	const (
		workers = 16
		rounds  = 200
		items   = 40
	)
	owner := make([]int64, items) // owner[i] = txn holding i exclusively
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				txn := core.TxnID(w*rounds + r + 1)
				i1 := core.ItemID((w*7 + r) % items)
				i2 := core.ItemID((w*13 + r*3) % items)
				if err := m.AcquireAll(txn, []core.ItemID{i1}, []core.ItemID{i2}); err != nil {
					m.Release(txn)
					continue
				}
				mu.Lock()
				if owner[i2] != 0 {
					t.Errorf("item %d exclusively held by txn %d and txn %d", i2, owner[i2], txn)
				}
				owner[i2] = int64(txn)
				mu.Unlock()
				mu.Lock()
				owner[i2] = 0
				mu.Unlock()
				m.Release(txn)
			}
		}(w)
	}
	wg.Wait()
	locked, waiters := m.Stats()
	if locked != 0 || waiters != 0 {
		t.Errorf("table not empty after stress: %d locked, %d waiters", locked, waiters)
	}
}

// BenchmarkStripedParallelDisjoint measures uncontended acquire/release
// throughput with all CPUs hitting disjoint items — the case striping
// exists for. Compare -stripes variants:
//
//	go test -bench 'StripedParallel' -cpu 4 ./internal/lockmgr/
func BenchmarkStripedParallelDisjoint(b *testing.B) {
	for _, stripes := range []int{1, 16} {
		b.Run(map[int]string{1: "stripes=1", 16: "stripes=16"}[stripes], func(b *testing.B) {
			m := NewSharded(time.Second, stripes)
			defer m.Close()
			var txnSeq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				// Each worker owns a private item range: pure stripe
				// scaling, no lock conflicts.
				base := core.ItemID(txnSeq.Add(1000000))
				txn := core.TxnID(base)
				i := 0
				for pb.Next() {
					txn++
					item := base + core.ItemID(i%128)
					i++
					if err := m.Acquire(txn, item, Exclusive); err != nil {
						b.Fatal(err)
					}
					m.Release(txn)
				}
			})
		})
	}
}
