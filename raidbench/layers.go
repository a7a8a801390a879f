package main

import (
	"fmt"
	"sort"
	"time"

	"minraid/internal/core"
	"minraid/internal/msg"
	"minraid/internal/site"
	"minraid/internal/trace"
	"minraid/internal/txn"
)

// modelledKinds are the message kinds the per-layer report breaks the
// transport count into, and the msg codec model rebuilds.
var modelledKinds = []msg.Kind{
	msg.KindClientTxn, msg.KindTxnResult,
	msg.KindPrepare, msg.KindPrepareAck, msg.KindCommit, msg.KindCommitAck, msg.KindAbort,
	msg.KindCopyRequest, msg.KindCopyResponse, msg.KindClearFailLocks, msg.KindClearFailLocksAck,
	msg.KindCtrlRecover, msg.KindCtrlRecoverAck, msg.KindCtrlFail, msg.KindCtrlFailAck,
	msg.KindCtrlLockSync, msg.KindCtrlLockSyncAck,
	msg.KindFailSim, msg.KindRecoverSim, msg.KindStatusResp,
}

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// layerInput is what the traced phase leaves for the per-layer report.
type layerInput struct {
	p          *phase
	msgs       map[string]uint64 // per-kind message counts during the phase
	walBytes   int64
	untracedTP float64 // untraced txn_per_s, for trace.overhead_frac
	tracedTP   float64
}

// perLayer computes every per-layer metric of a traced phase.
func perLayer(li layerInput) []metric {
	p := li.p
	issued := float64(max(p.n, 1))
	var out []metric
	add := func(name string, v float64, unit string, n int) {
		out = append(out, metric{name, v, unit, n})
	}

	// cluster: the manager<->coordinator round trip.
	var hop, coord []float64
	for _, o := range p.outs {
		if o.errored {
			continue
		}
		hop = append(hop, us(o.lat-o.coord))
		coord = append(coord, us(o.coord))
	}
	add("cluster.hop_us", orZero(median(hop)), "us", len(hop))

	// site: registry timers and counters, summed over sites.
	timer := func(name string) (time.Duration, int) {
		var total time.Duration
		var n uint64
		for i := 0; i < p.s.sites; i++ {
			t := p.in.c.Registry(core.SiteID(i)).Timer(name)
			total += t.Total
			n += t.Count
		}
		if n == 0 {
			return 0, 0
		}
		return total / time.Duration(n), int(n)
	}
	add("site.coord_us_p50", orZero(quantile(coord, 0.50)), "us", len(coord))
	add("site.coord_us_p99", orZero(quantile(coord, 0.99)), "us", len(coord))
	d, n := timer(site.TimerPartTxn)
	add("site.part_us", us(d), "us", n)
	d, n = timer(site.TimerCtrl1Recovering)
	add("site.ctrl1_ms", ms(d), "ms", n)
	d, n = timer(site.TimerCtrl2Fanout)
	add("site.ctrl2_fanout_ms", ms(d), "ms", n)
	d, n = timer(site.TimerCopyServe)
	add("site.copy_serve_us", us(d), "us", n)
	d, n = timer(site.TimerClearFanout)
	add("site.clear_fanout_us", us(d), "us", n)
	var copiers uint64
	for i := 0; i < p.s.sites; i++ {
		copiers += p.in.c.Site(core.SiteID(i)).Stats().CopiersRequested
	}
	add("site.copiers_per_cycle", ratio(float64(copiers), len(p.cycles)), "count", len(p.cycles))

	// Protocol phases from the program's own trace events.
	phaseTotal := map[string]time.Duration{}
	events := p.in.c.Tracer().Events()
	for _, ev := range events {
		if ev.TraceID < trace.AdminBase {
			phaseTotal[ev.Phase] += ev.Dur
		}
	}
	for _, ph := range []string{trace.PhasePrepare, trace.PhaseCommit, trace.PhaseCopier} {
		add("site.phase."+ph+"_us", us(phaseTotal[ph])/issued, "us", p.n)
	}

	// core: fail-lock tables and session vectors over the cycles.
	var atRecover []float64
	var cleared, catchupTxns, disagree int
	for _, c := range p.cycles {
		if !c.refused {
			atRecover = append(atRecover, float64(c.locksAtRecv))
		}
		if !c.failed() {
			cleared += c.locksAtRecv
			catchupTxns += c.catchupTxns
		}
		disagree += c.disagree
	}
	maint, maintTxns := maintainModel(p)
	add("core.maintain_us_per_txn", us(maint), "us", maintTxns)
	add("core.faillocks_at_recover", orZero(median(atRecover)), "count", len(atRecover))
	add("core.faillocks_cleared_per_txn", ratio(float64(cleared), catchupTxns), "1/txn", catchupTxns)
	add("core.vector_disagreements", float64(disagree), "count", len(p.cycles))

	// transport: messages per issued transaction, in total and per kind.
	var total uint64
	for _, c := range li.msgs {
		total += c
	}
	add("transport.msgs_per_txn", float64(total)/issued, "1/txn", int(total))
	for _, k := range modelledKinds {
		c := li.msgs[k.String()]
		add("transport.msgs."+k.String()+"_per_txn", float64(c)/issued, "1/txn", int(c))
	}

	// msg: codec time and bytes, modelled from the run's own transactions.
	codec, bytes, samples := codecModel(p, li.msgs)
	add("msg.codec_us_per_txn", us(codec)/issued, "us", samples)
	add("msg.bytes_per_txn", bytes/issued, "B", samples)

	// storage: the decorator's spans.
	applies := p.sp.durations("storage.Apply")
	gets := p.sp.durations("storage.Get")
	applyUs := make([]float64, len(applies))
	for i, d := range applies {
		applyUs[i] = us(d)
	}
	add("storage.apply_per_txn", float64(len(applies))/issued, "1/txn", len(applies))
	add("storage.apply_us_p50", orZero(quantile(applyUs, 0.50)), "us", len(applies))
	add("storage.apply_us_p99", orZero(quantile(applyUs, 0.99)), "us", len(applies))
	add("storage.get_per_txn", float64(len(gets))/issued, "1/txn", len(gets))
	var userBytes int64
	for i, o := range p.outs {
		if o.committed {
			for _, op := range p.txns.txn(i).ops {
				if op.Kind == core.OpWrite {
					userBytes += int64(len(op.Value))
				}
			}
		}
	}
	add("storage.wal_bytes_per_user_byte", ratio(float64(li.walBytes), int(userBytes)), "ratio", int(userBytes))

	// lockmgr: aborts the lock manager caused.
	lockAborts := 0
	for _, o := range p.outs {
		if o.reason == txn.AbortLockTimeout || o.reason == txn.AbortDeadlock {
			lockAborts++
		}
	}
	add("lockmgr.timeout_aborts_per_ktxn", 1000*float64(lockAborts)/issued, "1/ktxn", lockAborts)

	overhead := 0.0
	if li.untracedTP > 0 {
		overhead = 1 - li.tracedTP/li.untracedTP
	}
	add("trace.overhead_frac", overhead, "frac", p.n)
	return out
}

// cycleMetrics are the per-layer metrics of fail/recover cycles: control
// transactions, copiers, fail-locks left by a failure, and the message
// kinds those send. They read 0 on the workloads BENCHMARK.json lists, so
// the JSON line leaves them out; the lines above it print them.
var cycleMetrics = map[string]bool{
	"site.ctrl1_ms":                           true,
	"site.ctrl2_fanout_ms":                    true,
	"site.copy_serve_us":                      true,
	"site.clear_fanout_us":                    true,
	"site.copiers_per_cycle":                  true,
	"site.phase." + trace.PhaseCopier + "_us": true,
	"core.faillocks_at_recover":               true,
	"core.faillocks_cleared_per_txn":          true,
	"core.vector_disagreements":               true,
}

func init() {
	for _, k := range []msg.Kind{
		msg.KindCopyRequest, msg.KindCopyResponse, msg.KindClearFailLocks, msg.KindClearFailLocksAck,
		msg.KindCtrlRecover, msg.KindCtrlRecoverAck, msg.KindCtrlFail, msg.KindCtrlFailAck,
		msg.KindCtrlLockSync, msg.KindCtrlLockSyncAck,
		msg.KindFailSim, msg.KindRecoverSim, msg.KindStatusResp,
	} {
		cycleMetrics["transport.msgs."+k.String()+"_per_txn"] = true
	}
}

// maintainModel replays the commit-time fail-lock maintenance of the
// phase's committed writes, as every site applying a write runs it:
// FailLockTable.MaintainMasked on the item with the item's host mask and
// the coordinator's session vector (here the final vector of site 0, on a
// fresh table). It times up to codecSamples transactions, one span each,
// and returns the mean time per committed transaction and how many it
// timed.
func maintainModel(p *phase) (time.Duration, int) {
	rep := core.FullReplication(p.s.items, p.s.sites)
	tbl := core.NewFailLockTable(p.s.items, p.s.sites)
	vec := p.in.c.Site(0).Vector()
	stride := max(1, p.n/codecSamples)
	var total time.Duration
	n := 0
	for i := 0; i < p.n; i += stride {
		if !p.outs[i].committed {
			continue
		}
		is := p.txns.txn(i)
		id := p.sp.begin("core.MaintainMasked", -1, uint64(is.id))
		for s := 0; s < p.s.sites; s++ {
			for _, op := range is.ops {
				if op.Kind == core.OpWrite {
					tbl.MaintainMasked(op.Item, vec, rep.HostMask(op.Item))
				}
			}
		}
		p.sp.end(id)
		total += p.sp.dur(id)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return total / time.Duration(n), n
}

// ratio is v/n, or 0 when n is 0.
func ratio(v float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return v / float64(n)
}

// orZero maps the NaN of an empty sample to 0 (the sample count says so).
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

// codecSamples bounds how many envelopes of each kind the model rebuilds.
const codecSamples = 2000

// codecModel rebuilds envelopes of every modelled kind from the phase's
// own transactions, times msg.Marshal plus msg.Unmarshal on each, and
// weights the per-kind means by the phase's message counts. It returns
// the modelled codec time and bytes for the whole phase and the number of
// envelopes timed.
func codecModel(p *phase, counts map[string]uint64) (time.Duration, float64, int) {
	bodies := modelBodies(p)
	var total time.Duration
	var totalBytes float64
	samples := 0
	for _, k := range modelledKinds {
		c := counts[k.String()]
		envs := bodies[k]
		if c == 0 || len(envs) == 0 {
			continue
		}
		var dur time.Duration
		var size int
		for _, env := range envs {
			id := p.sp.begin("msg.Marshal", -1, env.Trace)
			buf := msg.Marshal(env)
			p.sp.end(id)
			id2 := p.sp.begin("msg.Unmarshal", -1, env.Trace)
			_, err := msg.Unmarshal(buf)
			p.sp.end(id2)
			if err != nil {
				p.note(fmt.Sprintf("codec model: %s did not round-trip: %v", k, err))
			}
			dur += p.sp.dur(id) + p.sp.dur(id2)
			size += len(buf)
		}
		n := len(envs)
		samples += n
		total += time.Duration(float64(dur) / float64(n) * float64(c))
		totalBytes += float64(size) / float64(n) * float64(c)
	}
	return total, totalBytes, samples
}

// modelBodies rebuilds up to codecSamples envelopes per modelled kind from
// transactions the phase issued and the replies it received.
func modelBodies(p *phase) map[msg.Kind][]*msg.Envelope {
	out := map[msg.Kind][]*msg.Envelope{}
	put := func(k msg.Kind, from, to core.SiteID, tr uint64, b msg.Body) {
		if len(out[k]) < codecSamples {
			out[k] = append(out[k], &msg.Envelope{From: from, To: to, Seq: uint64(len(out[k]) + 1), Trace: tr, Body: b})
		}
	}
	vec := p.in.c.Site(0).Vector().Records()
	stride := max(1, p.n/codecSamples)
	for i := 0; i < p.n; i += stride {
		is, res := p.txns.txn(i), p.replies[i]
		if res == nil {
			continue
		}
		tr := uint64(is.id)
		coord := core.SiteID(i % p.s.sites)
		part := core.SiteID((i + 1) % p.s.sites)
		var writes, versions []core.ItemVersion
		var reads []core.ItemID
		for _, op := range is.ops {
			if op.Kind == core.OpWrite {
				writes = append(writes, core.ItemVersion{Item: op.Item, Version: is.id, Value: op.Value})
				versions = append(versions, core.ItemVersion{Item: op.Item, Version: is.id})
			} else {
				reads = append(reads, op.Item)
			}
		}
		if p.s.concurrent <= 1 {
			versions = nil // serial commits ship no versions
		}
		put(msg.KindClientTxn, core.ManagingSite, coord, tr, &msg.ClientTxn{Txn: is.id, Ops: is.ops})
		put(msg.KindTxnResult, coord, core.ManagingSite, tr, res)
		if len(writes) > 0 {
			put(msg.KindPrepare, coord, part, tr, &msg.Prepare{Txn: is.id, Vector: vec, Writes: writes})
			put(msg.KindPrepareAck, part, coord, tr, &msg.PrepareAck{Txn: is.id, OK: true})
			put(msg.KindCommit, coord, part, tr, &msg.Commit{Txn: is.id, Versions: versions})
			put(msg.KindCommitAck, part, coord, tr, &msg.CommitAck{Txn: is.id})
			put(msg.KindAbort, coord, part, tr, &msg.Abort{Txn: is.id})
		}
		if len(reads) > 0 {
			put(msg.KindCopyRequest, coord, part, tr, &msg.CopyRequest{Txn: is.id, Items: reads})
			put(msg.KindCopyResponse, part, coord, tr, &msg.CopyResponse{Txn: is.id, OK: true, Items: res.Reads})
			put(msg.KindClearFailLocks, coord, part, tr, &msg.ClearFailLocks{Txn: is.id, Site: coord, Items: reads})
			put(msg.KindClearFailLocksAck, part, coord, tr, &msg.ClearFailLocksAck{Txn: is.id})
		}
	}
	// Control traffic: one envelope per cycle, shaped like the cycle's
	// type-1/type-2 exchange (fail-lock words with the peak count set).
	for ci, c := range p.cycles {
		k := core.SiteID(c.site)
		donor := core.SiteID((c.site + 1) % p.s.sites)
		words := make([]uint64, p.s.items)
		vers := make([]uint64, p.s.items)
		for it := range words {
			if it < c.locksAtRecv {
				words[it] = 1 << uint(k)
			}
			vers[it] = uint64(p.n - it)
		}
		sess := core.SessionNum(ci/p.s.sites + 2)
		tr := uint64(trace.AdminBase) + uint64(ci+1)
		put(msg.KindCtrlRecover, k, donor, tr, &msg.CtrlRecover{Site: k, Session: sess})
		put(msg.KindCtrlRecoverAck, donor, k, tr, &msg.CtrlRecoverAck{OK: true, Vector: vec, FailLocks: words, Versions: vers})
		put(msg.KindCtrlLockSync, k, donor, tr, &msg.CtrlLockSync{Site: k, FailLocks: words, Versions: vers})
		put(msg.KindCtrlLockSyncAck, donor, k, tr, &msg.CtrlLockSyncAck{})
		put(msg.KindCtrlFail, donor, k, tr, &msg.CtrlFail{Failed: []msg.SiteFail{{Site: k, Session: sess - 1}}})
		put(msg.KindCtrlFailAck, k, donor, tr, &msg.CtrlFailAck{})
		put(msg.KindFailSim, core.ManagingSite, k, tr, &msg.FailSim{})
		put(msg.KindRecoverSim, core.ManagingSite, k, tr, &msg.RecoverSim{})
		put(msg.KindStatusResp, k, core.ManagingSite, tr, &msg.StatusResp{
			Site: k, State: core.StatusUp, Session: sess, Vector: vec, FailLockCounts: make([]uint32, p.s.sites),
		})
	}
	return out
}

// unmodelledKinds lists kinds that were sent but that the per-kind
// breakdown and codec model do not cover, with their counts.
func unmodelledKinds(counts map[string]uint64) []string {
	known := map[string]bool{}
	for _, k := range modelledKinds {
		known[k.String()] = true
	}
	var out []string
	for k, c := range counts {
		if !known[k] && c > 0 {
			out = append(out, fmt.Sprintf("%s=%d", k, c))
		}
	}
	sort.Strings(out)
	return out
}
