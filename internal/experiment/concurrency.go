package experiment

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/txn"
	"minraid/internal/workload"
)

// ConcurrencyReport quantifies the paper's deferred future work: how much
// throughput interleaved execution under distributed strict 2PL buys over
// the paper's serial processing, as a function of the per-site concurrency
// bound.
type ConcurrencyReport struct {
	Sites, Items, Clients, TxnsPerClient int
	Delay                                time.Duration
	Rows                                 []ConcurrencyRow
}

// ConcurrencyRow is one sweep point. Lock-wait timeouts and wait-die
// victims are reported separately: timeouts respond to the lock-wait
// budget and slow or stalled holders, wait-die deaths to the access
// pattern.
type ConcurrencyRow struct {
	Degree       int
	Committed    int
	LockAborts   int // lock-wait timeouts
	Deadlocks    int // wait-die victims: died rather than wait behind an older txn
	Elapsed      time.Duration
	TxnPerSecond float64
}

// String renders the sweep.
func (r ConcurrencyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: concurrent execution sweep (%d clients x %d txns, one coordinator, delay %v)\n",
		r.Clients, r.TxnsPerClient, r.Delay)
	fmt.Fprintf(&b, "  %8s %10s %13s %10s %10s %10s\n", "degree", "committed", "lock timeouts", "wait-die", "elapsed", "txn/s")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %8d %10d %13d %10d %10v %10.0f\n",
			row.Degree, row.Committed, row.LockAborts, row.Deadlocks, row.Elapsed.Round(time.Millisecond), row.TxnPerSecond)
	}
	return b.String()
}

// RunConcurrencySweep drives parallel clients against one coordinator at
// several concurrency bounds. Clients work disjoint item ranges, so lock
// aborts reflect protocol overheads rather than data contention; degree 1
// is the paper's serial processing.
func RunConcurrencySweep(cfg Config, degrees []int, clients, perClient int) (*ConcurrencyReport, error) {
	cfg = cfg.withDefaults(3, 256, 4)
	if len(degrees) == 0 {
		degrees = []int{1, 2, 4, 8}
	}
	if clients == 0 {
		clients = 4
	}
	if perClient == 0 {
		perClient = 50
	}
	report := &ConcurrencyReport{
		Sites: cfg.Sites, Items: cfg.Items,
		Clients: clients, TxnsPerClient: perClient,
		Delay: cfg.Delay,
	}

	for _, degree := range degrees {
		ccfg := cfg.clusterConfig()
		ccfg.ConcurrentTxns = degree
		c, err := cluster.New(ccfg)
		if err != nil {
			return nil, err
		}
		row := ConcurrencyRow{Degree: degree}
		span := cfg.Items / clients
		var mu sync.Mutex
		var wg sync.WaitGroup
		var firstErr error
		start := time.Now()
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				base := core.ItemID(w * span)
				for i := 0; i < perClient; i++ {
					id := c.NextTxnID()
					item := base + core.ItemID(i%span)
					out, err := c.ExecTxn(0, id, []core.Op{
						core.Read(item),
						core.Write(item, workload.Payload(id, item)),
					})
					mu.Lock()
					switch {
					case err != nil:
						if firstErr == nil {
							firstErr = err
						}
					case out.Committed:
						row.Committed++
					case out.AbortReason == txn.AbortLockTimeout:
						row.LockAborts++
					case out.AbortReason == txn.AbortDeadlock:
						row.Deadlocks++
					default:
						if firstErr == nil {
							firstErr = fmt.Errorf("concurrency sweep: unexpected abort %q", out.AbortReason)
						}
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		row.Elapsed = time.Since(start)
		row.TxnPerSecond = float64(row.Committed) / row.Elapsed.Seconds()
		c.Close()
		if firstErr != nil {
			return nil, firstErr
		}
		report.Rows = append(report.Rows, row)
	}
	return report, nil
}
