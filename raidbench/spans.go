package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/storage"
)

// span is one benchmark call into a layer: name, start and end (offsets
// from the recorder's origin), the span that caused it (-1: none) and
// the transaction it belongs to (0: none).
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	txn        uint64
}

// spans keeps every span of a traced run in memory. All methods are safe
// for concurrent use and are no-ops on a nil receiver, so the untraced run
// calls them unguarded.
type spans struct {
	t0  time.Time
	mu  sync.Mutex
	all []span
	// current is the open cluster call of a single-client run, the parent
	// of the storage calls the cluster makes meanwhile (-1: none).
	current atomic.Int32
}

func newSpans(capacity int) *spans {
	sp := &spans{t0: time.Now(), all: make([]span, 0, capacity)}
	sp.current.Store(-1)
	return sp
}

// begin opens a span and returns its index.
func (sp *spans) begin(name string, parent int32, txn uint64) int32 {
	if sp == nil {
		return -1
	}
	now := time.Since(sp.t0)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.all = append(sp.all, span{name: name, start: now, parent: parent, txn: txn})
	return int32(len(sp.all) - 1)
}

// end closes span id.
func (sp *spans) end(id int32) {
	if sp == nil {
		return
	}
	now := time.Since(sp.t0)
	sp.mu.Lock()
	sp.all[id].end = now
	sp.mu.Unlock()
}

func (sp *spans) setCurrent(id int32) {
	if sp != nil {
		sp.current.Store(id)
	}
}

// child opens a span under the current cluster call, inheriting its txn.
func (sp *spans) child(name string) int32 {
	parent := sp.current.Load()
	now := time.Since(sp.t0)
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var txn uint64
	if parent >= 0 {
		txn = sp.all[parent].txn
	}
	sp.all = append(sp.all, span{name: name, start: now, parent: parent, txn: txn})
	return int32(len(sp.all) - 1)
}

// durations returns the durations of every closed span named name.
func (sp *spans) durations(name string) []time.Duration {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var out []time.Duration
	for _, s := range sp.all {
		if s.name == name && s.end >= s.start {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// write saves every span as gzipped tab-separated lines:
// id, name, start_ns, end_ns, parent, txn.
func (sp *spans) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\ttxn")
	sp.mu.Lock()
	for i, s := range sp.all {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.start.Nanoseconds(), s.end.Nanoseconds(), s.parent, s.txn)
	}
	sp.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

// tracedStore records a span around every call the program makes into
// its storage layer.
type tracedStore struct {
	storage.Store
	sp *spans
}

func (s *tracedStore) Get(item core.ItemID) (core.ItemVersion, error) {
	id := s.sp.child("storage.Get")
	defer s.sp.end(id)
	return s.Store.Get(item)
}

func (s *tracedStore) Apply(iv core.ItemVersion) (bool, error) {
	id := s.sp.child("storage.Apply")
	defer s.sp.end(id)
	return s.Store.Apply(iv)
}

func (s *tracedStore) Dump(first, last core.ItemID) ([]core.ItemVersion, error) {
	id := s.sp.child("storage.Dump")
	defer s.sp.end(id)
	return s.Store.Dump(first, last)
}

// dur is the duration of closed span id.
func (sp *spans) dur(id int32) time.Duration {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.all[id].end - sp.all[id].start
}
