package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"minraid/internal/cluster"
	"minraid/internal/core"
	"minraid/internal/storage"
	"minraid/internal/trace"
	"minraid/internal/workload"
)

// spec describes one benchmark workload. Every workload runs full
// replication under ROWAA with zero per-hop delay, closed loop: each client
// sends its next transaction only after the previous reply.
type spec struct {
	name    string
	sites   int
	items   int
	clients int
	// concurrent is the per-site ConcurrentTxns (0: the paper's serial
	// processing); lockWait its LockWaitBudget.
	concurrent int
	lockWait   time.Duration
	// ack is the failure-detection timeout (0: the site default).
	ack time.Duration
	// wal selects group-commit WAL stores instead of memory.
	wal bool
	// gen builds the seeded transaction generator.
	gen func(seed int64) workload.Generator
	// perSecond bounds the transactions generated per measured second;
	// a run that exhausts them ends early.
	perSecond int
	// failRecover selects the fail/recover cycle loop.
	failRecover bool
	// unlisted, when set, says why BENCHMARK.json does not list the
	// workload; it still runs by name.
	unlisted string
}

// Fail-recover cycle shape.
const (
	// failPhaseTxns is the number of transactions a cycle runs, on the
	// other sites, while its site is down.
	failPhaseTxns = 100
	// catchupCap bounds a cycle's catch-up transactions. Clearing ~110
	// fail-locked items by uniform traffic over 256 items needs ~700 in
	// expectation; at 3000 a leftover lock is stuck, not slow.
	catchupCap = 3000
	// catchupPoll is how many transactions run between fail-lock checks.
	catchupPoll = 10
)

// managerTimeout bounds every managing-site call; an errored transaction
// counts at this latency.
const managerTimeout = 2 * time.Second

var specs = []*spec{
	{
		name: "serial-mem", sites: 4, items: 1024, clients: 1,
		gen:       func(seed int64) workload.Generator { return workload.NewUniform(1024, 5, seed) },
		perSecond: 30000,
	},
	{
		name: "concurrent-wal", sites: 4, items: 1024, clients: 2,
		concurrent: 8, lockWait: 25 * time.Millisecond, wal: true,
		gen:       func(seed int64) workload.Generator { return workload.NewHotCold(1024, 128, 5, seed) },
		perSecond: 12000,
	},
	{
		name: "fail-recover", sites: 4, items: 256, clients: 1,
		ack:         50 * time.Millisecond,
		gen:         func(seed int64) workload.Generator { return workload.NewUniform(256, 5, seed) },
		perSecond:   20000,
		failRecover: true,
		unlisted: "the transport.Caller.await false suspicion fails its gate " +
			"in nearly every 30 s run (README.md, Correctness gate)",
	},
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.name == name {
			return s
		}
	}
	return nil
}

// txnInput is one transaction ready to send.
type txnInput struct {
	id  core.TxnID
	ops []core.Op
}

// poolSize bounds how many distinct transactions a run generates.
// Generating one costs ~12us (the generator seeds a fresh rng per ID), so
// longer runs cycle through the pool under fresh IDs instead.
const poolSize = 1 << 16

// inputs holds the pre-generated transactions compactly: pool shape j's
// operations are codes[off[j]:off[j+1]], each item<<1, plus 1 for a write.
// The arrays hold no pointers, so the garbage collector never scans them
// while the program runs. Transaction i (ID i+1) has shape i mod the pool
// size; txn rebuilds it just before it is issued, with the payloads the
// generator derives from ID and item.
type inputs struct {
	n     int // transactions
	codes []uint32
	off   []uint32
}

// genInputs generates the shapes of transactions 1..min(n, poolSize) from
// the seed, split over one worker per CPU (a generator's Next is pure in
// seed and ID), for a run of n transactions.
func genInputs(g workload.Generator, n int) *inputs {
	shapes := min(n, poolSize)
	workers := runtime.GOMAXPROCS(0)
	parts := make([]*inputs, workers)
	var wg sync.WaitGroup
	for w := range parts {
		lo, hi := shapes*w/workers, shapes*(w+1)/workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			part := &inputs{codes: make([]uint32, 0, 3*(hi-lo)), off: make([]uint32, 0, hi-lo)}
			for i := lo; i < hi; i++ {
				for _, op := range g.Next(core.TxnID(i + 1)) {
					c := uint32(op.Item) << 1
					if op.Kind == core.OpWrite {
						c |= 1
					}
					part.codes = append(part.codes, c)
				}
				part.off = append(part.off, uint32(len(part.codes)))
			}
			parts[w] = part
		}()
	}
	wg.Wait()
	in := &inputs{n: n, codes: make([]uint32, 0, 3*shapes), off: make([]uint32, 1, shapes+1)}
	for _, part := range parts {
		base := uint32(len(in.codes))
		in.codes = append(in.codes, part.codes...)
		for _, o := range part.off {
			in.off = append(in.off, base+o)
		}
	}
	return in
}

// len is the number of transactions.
func (in *inputs) len() int { return in.n }

// prefix is the first m transactions.
func (in *inputs) prefix(m int) *inputs { return &inputs{n: m, codes: in.codes, off: in.off} }

// txn rebuilds transaction i (ID i+1).
func (in *inputs) txn(i int) txnInput {
	id := core.TxnID(i + 1)
	j := i % (len(in.off) - 1)
	codes := in.codes[in.off[j]:in.off[j+1]]
	ops := make([]core.Op, len(codes))
	for j, c := range codes {
		item := core.ItemID(c >> 1)
		if c&1 == 1 {
			ops[j] = core.Write(item, workload.Payload(id, item))
		} else {
			ops[j] = core.Read(item)
		}
	}
	return txnInput{id: id, ops: ops}
}

// instance is one running cluster plus the resources it owns.
type instance struct {
	c      *cluster.Cluster
	dir    string          // WAL root, removed on close ("" for memory)
	stores []storage.Store // opened by the factory, closed after the cluster
}

// build starts a cluster for the spec. tmp is the parent for WAL
// directories. A non-nil sp wraps every store in a span-recording
// decorator; recCap > 0 sizes the program's trace recorder.
func (s *spec) build(tmp string, sp *spans, recCap int) (*instance, error) {
	in := &instance{}
	cfg := cluster.Config{
		Sites:          s.sites,
		Items:          s.items,
		AckTimeout:     s.ack,
		ManagerTimeout: managerTimeout,
		ConcurrentTxns: s.concurrent,
		LockWaitBudget: s.lockWait,
	}
	if recCap > 0 {
		cfg.Tracer = trace.NewRecorder(recCap)
	}
	if s.wal {
		dir, err := os.MkdirTemp(tmp, s.name+"-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
	}
	if s.wal || sp != nil {
		cfg.StoreFactory = func(id core.SiteID) (storage.Store, error) {
			var st storage.Store
			if s.wal {
				w, err := storage.OpenWAL(storage.WALOptions{
					Dir:         filepath.Join(in.dir, fmt.Sprintf("site%d", id)),
					Items:       s.items,
					GroupCommit: true,
					// No fsync per batch: on a shared virtual disk its
					// latency drifts about 2x between runs of one seed,
					// which would swamp every bound (see README.md).
					Sync: false,
				})
				if err != nil {
					return nil, err
				}
				st = w
			} else {
				st = storage.NewMemStore(s.items, nil)
			}
			in.stores = append(in.stores, st)
			if sp != nil {
				return &tracedStore{Store: st, sp: sp}, nil
			}
			return st, nil
		}
	}
	c, err := cluster.New(cfg)
	if err != nil {
		in.close()
		return nil, err
	}
	in.c = c
	return in, nil
}

// close stops the cluster, closes its stores and removes its WAL files.
func (in *instance) close() {
	if in.c != nil {
		in.c.Close()
	}
	for _, st := range in.stores {
		_ = st.Close() // the run is over; the files are deleted next
	}
	if in.dir != "" {
		_ = os.RemoveAll(in.dir) // scratch space inside the benchmark's build dir
	}
}

// walBytes sums the sizes of every file under the instance's WAL root.
func (in *instance) walBytes() int64 {
	var n int64
	if in.dir == "" {
		return 0
	}
	_ = filepath.Walk(in.dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
