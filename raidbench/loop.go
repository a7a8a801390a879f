package main

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
)

// phase is one measured run of a workload against one cluster instance.
type phase struct {
	s    *spec
	in   *instance
	sp   *spans // nil: untraced
	txns *inputs

	start   time.Time
	outs    []txnOutcome
	replies []*msg.TxnResult // kept only when traced, for the codec model
	n       int              // transactions issued
	elapsed time.Duration
	cycles  []cycleOutcome
	reads   *readCheck // nil with concurrent clients
	mu      sync.Mutex // guards notes across clients
	notes   []string   // per-cycle diagnoses and first errors
}

func newPhase(s *spec, in *instance, sp *spans, txns *inputs) *phase {
	p := &phase{s: s, in: in, sp: sp, txns: txns, outs: make([]txnOutcome, txns.len())}
	if sp != nil {
		p.replies = make([]*msg.TxnResult, txns.len())
	}
	if s.clients == 1 {
		p.reads = newReadCheck(s.items)
	}
	return p
}

// exec issues transaction i to coord and records what the client saw. It
// returns the reply (nil when the call errored) and whether the
// transaction wrote.
func (p *phase) exec(i int, coord core.SiteID) (*msg.TxnResult, bool) {
	is := p.txns.txn(i)
	sid := p.sp.begin("cluster.ExecTxn", -1, uint64(is.id))
	if p.s.clients == 1 {
		p.sp.setCurrent(sid)
	}
	st := time.Now()
	res, err := p.in.c.ExecTxn(coord, is.id, is.ops)
	lat := time.Since(st)
	p.sp.end(sid)
	o := &p.outs[i]
	o.at = st.Add(lat).Sub(p.start)
	if err != nil {
		o.errored, o.lat = true, managerTimeout
		if p.reads != nil {
			p.reads.unknown(is)
		}
		p.note(fmt.Sprintf("txn %d on site %d errored: %v", is.id, coord, err))
		return nil, false
	}
	o.lat, o.coord = lat, time.Duration(res.ElapsedNanos)
	o.committed, o.reason = res.Committed, res.AbortReason
	if p.reads != nil {
		p.reads.observe(is, res)
	}
	if p.replies != nil {
		p.replies[i] = res
	}
	return res, len(core.WriteSet(is.ops)) > 0
}

// note keeps a diagnostic line, bounding how many are kept.
func (p *phase) note(s string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.notes) < 64 {
		p.notes = append(p.notes, s)
	}
}

// runLoop drives the fault-free workloads: clients closed-loop over the
// pre-generated transactions until d elapses or the inputs run out.
// Coordinators round-robin by transaction index.
func (p *phase) runLoop(d time.Duration) {
	var next atomic.Int64
	p.start = time.Now()
	start := p.start
	var wg sync.WaitGroup
	for c := 0; c < p.s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1) - 1)
				if i >= p.txns.len() {
					return
				}
				p.exec(i, core.SiteID(i%p.s.sites))
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	p.n = min(int(next.Load()), p.txns.len())
	p.outs = p.outs[:p.n]
}

// runCycles drives fail-recover: each cycle fails site k (rotating from
// first), runs failPhaseTxns transactions on the other sites, recovers k,
// then runs transactions on every coordinator until no up site holds a
// fail-lock for k, or catchupCap. Cycles start until d elapses, or until
// a cycle's recovery fails: the cluster has diverged then (a live site is
// marked down), so later cycles would time a different system.
func (p *phase) runCycles(d time.Duration, first int) {
	p.start = time.Now()
	start := p.start
	sites := p.s.sites
	k := first
	for time.Since(start) < d && p.txns.len()-p.n >= failPhaseTxns+catchupCap+catchupPoll {
		cy := p.cycle(k)
		p.cycles = append(p.cycles, cy)
		if cy.failed() {
			p.note(fmt.Sprintf("stopped after cycle %d of %v: its recovery failed", len(p.cycles), time.Since(start).Round(time.Millisecond)))
			break
		}
		k = (k + 1) % sites
	}
	p.elapsed = time.Since(start)
	p.outs = p.outs[:p.n]
}

func (p *phase) cycle(k int) cycleOutcome {
	c := p.in.c
	target := core.SiteID(k)
	cy := cycleOutcome{site: k}
	others := make([]core.SiteID, 0, p.s.sites-1)
	for i := 0; i < p.s.sites; i++ {
		if i != k {
			others = append(others, core.SiteID(i))
		}
	}

	sid := p.sp.begin("cluster.Fail", -1, 0)
	err := c.Fail(target)
	p.sp.end(sid)
	if err != nil {
		cy.refused = true
		p.note(fmt.Sprintf("cycle site %d: Fail errored: %v", k, err))
		return cy
	}
	failed := time.Now()
	for j := 0; j < failPhaseTxns; j++ {
		res, wrote := p.exec(p.n, others[j%len(others)])
		p.n++
		if !cy.hasFailover && res != nil && res.Committed && wrote {
			cy.failover, cy.hasFailover = time.Since(failed), true
		}
	}
	for _, o := range others {
		if n := p.failLockCount(o, target); n > cy.locksAtRecv {
			cy.locksAtRecv = n
		}
	}

	sid = p.sp.begin("cluster.Recover", -1, 0)
	st := time.Now()
	_, err = c.Recover(target)
	cy.recover = time.Since(st)
	p.sp.end(sid)
	if err != nil {
		cy.refused = true
		p.note(fmt.Sprintf("cycle site %d: Recover refused: %v; %s", k, err, p.stateLine(target)))
		return cy
	}
	recovered := time.Now()
	for t := 0; ; t++ {
		if t%catchupPoll == 0 && p.clean(target) {
			cy.catchup, cy.catchupTxns = time.Since(recovered), t
			break
		}
		if t >= catchupCap {
			cy.capped = true
			p.note(fmt.Sprintf("cycle site %d: fail-locks remain after %d catch-up txns; %s", k, t, p.stateLine(target)))
			break
		}
		p.exec(p.n, core.SiteID(t%p.s.sites))
		p.n++
	}
	cy.disagree = vectorDisagreements(p.in)
	return cy
}

// failLockCount reads observer's count of items fail-locked for target,
// in process (no messages).
func (p *phase) failLockCount(observer, target core.SiteID) int {
	sid := p.sp.begin("site.FailLockCount", -1, 0)
	n := p.in.c.Site(observer).FailLockCount(target)
	p.sp.end(sid)
	return n
}

// clean reports whether no up site holds a fail-lock for target.
func (p *phase) clean(target core.SiteID) bool {
	for i := 0; i < p.s.sites; i++ {
		id := core.SiteID(i)
		if p.in.c.Site(id).State() != core.StatusUp {
			continue
		}
		if p.failLockCount(id, target) != 0 {
			return false
		}
	}
	return true
}

// stateLine renders, for a diagnosis, every site's state, its fail-lock
// count for target and its session vector.
func (p *phase) stateLine(target core.SiteID) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fail-locks for %d by observer:", target)
	for i := 0; i < p.s.sites; i++ {
		s := p.in.c.Site(core.SiteID(i))
		fmt.Fprintf(&b, " s%d(%s)=%d", i, s.State(), s.FailLockCount(target))
	}
	b.WriteString("; vectors:")
	for i := 0; i < p.s.sites; i++ {
		fmt.Fprintf(&b, " s%d=%s", i, p.in.c.Site(core.SiteID(i)).Vector())
	}
	return b.String()
}

// vectorDisagreements counts pairs of up sites whose nominal session
// vectors differ.
func vectorDisagreements(in *instance) int {
	var up [][]core.SiteInfo
	for i := 0; i < in.c.Sites(); i++ {
		s := in.c.Site(core.SiteID(i))
		if s.State() == core.StatusUp {
			up = append(up, s.Vector().Records())
		}
	}
	n := 0
	for i := range up {
		for j := i + 1; j < len(up); j++ {
			if !slices.Equal(up[i], up[j]) {
				n++
			}
		}
	}
	return n
}

// readCheck verifies, for a single client, that every committed read
// returns the latest committed write of its item. Items written by a
// transaction whose outcome is unknown (it errored) are no longer checked.
type readCheck struct {
	latest     []core.ItemVersion
	unsure     []bool
	mismatches int
	first      []string
}

func newReadCheck(items int) *readCheck {
	rc := &readCheck{latest: make([]core.ItemVersion, items), unsure: make([]bool, items)}
	for i := range rc.latest {
		rc.latest[i].Item = core.ItemID(i)
	}
	return rc
}

func (rc *readCheck) observe(is txnInput, res *msg.TxnResult) {
	if !res.Committed {
		return
	}
	r := 0
	for j, op := range is.ops {
		if op.Kind != core.OpRead {
			continue
		}
		if r >= len(res.Reads) {
			rc.mismatch(fmt.Sprintf("txn %d: %d reads returned for more read ops", is.id, len(res.Reads)))
			break
		}
		got := res.Reads[r]
		r++
		if rc.unsure[op.Item] || writtenBefore(is.ops[:j], op.Item) {
			continue
		}
		want := rc.latest[op.Item]
		if got.Item != want.Item || got.Version != want.Version || !bytes.Equal(got.Value, want.Value) {
			rc.mismatch(fmt.Sprintf("txn %d read item %d: got %s, want %s", is.id, op.Item, got, want))
		}
	}
	for _, op := range is.ops {
		if op.Kind == core.OpWrite {
			rc.latest[op.Item] = core.ItemVersion{Item: op.Item, Version: is.id, Value: op.Value}
		}
	}
}

func (rc *readCheck) unknown(is txnInput) {
	for _, op := range is.ops {
		if op.Kind == core.OpWrite {
			rc.unsure[op.Item] = true
		}
	}
}

func (rc *readCheck) mismatch(s string) {
	rc.mismatches++
	if len(rc.first) < 10 {
		rc.first = append(rc.first, s)
	}
}

func writtenBefore(ops []core.Op, item core.ItemID) bool {
	for _, op := range ops {
		if op.Kind == core.OpWrite && op.Item == item {
			return true
		}
	}
	return false
}
