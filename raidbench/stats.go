package main

import (
	"math"
	"sort"
	"time"
)

// txnOutcome is what the client observed for one issued transaction.
type txnOutcome struct {
	lat       time.Duration // client-observed ExecTxn latency
	at        time.Duration // when the reply arrived, from the phase start
	coord     time.Duration // coordinator-measured time (TxnResult.ElapsedNanos)
	committed bool
	errored   bool   // ExecTxn returned an error: no reply within the timeout
	reason    string // abort reason, when neither committed nor errored
}

// cycleOutcome is one fail-recover cycle: fail site, run, recover, catch up.
type cycleOutcome struct {
	site        int
	failover    time.Duration // Fail returning -> first committed write
	hasFailover bool
	recover     time.Duration // the Recover call
	catchup     time.Duration // Recover returning -> no fail-lock for site on any up site
	catchupTxns int
	locksAtRecv int  // most items fail-locked for site, over observers, just before Recover
	refused     bool // Recover refused or errored
	capped      bool // catch-up hit the cap
	disagree    int  // pairs of up sites whose vectors differ after catch-up
}

// failed reports whether the cycle counts against recovery_fail_frac.
func (c cycleOutcome) failed() bool { return c.refused || c.capped }

// txnTotals is the accounting of a set of issued transactions.
type txnTotals struct {
	issued, committed, aborted, errored int
}

// tally counts outcomes.
func tally(outs []txnOutcome) txnTotals {
	t := txnTotals{issued: len(outs)}
	for _, o := range outs {
		switch {
		case o.errored:
			t.errored++
		case o.committed:
			t.committed++
		default:
			t.aborted++
		}
	}
	return t
}

// abortFrac is aborted plus errored transactions over issued.
func (t txnTotals) abortFrac() float64 {
	if t.issued == 0 {
		return 0
	}
	return float64(t.aborted+t.errored) / float64(t.issued)
}

// latencies returns every issued transaction's latency, aborts and errors
// included (an errored transaction was recorded at its timeout).
func latencies(outs []txnOutcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = ms(o.lat)
	}
	return v
}

// window is the slice of a run that txn_per_s and txn_p99_ms are taken
// over before the median across slices: a neighbour's burst on a shared
// machine then moves one slice, not the run's figure.
const window = time.Second

// windows is the number of full windows in elapsed; a run shorter than
// one window is one window of its own length.
func windows(elapsed time.Duration) (int, time.Duration) {
	if n := int(elapsed / window); n > 0 {
		return n, window
	}
	return 1, elapsed
}

// windowRate is the median over windows of committed transactions per
// second.
func windowRate(outs []txnOutcome, elapsed time.Duration) float64 {
	n, d := windows(elapsed)
	committed := make([]float64, n)
	for _, o := range outs {
		if w := int(o.at / d); w < n && o.committed {
			committed[w]++
		}
	}
	for i := range committed {
		committed[i] /= d.Seconds()
	}
	return median(committed)
}

// windowQuantile is the median over windows of each window's latency
// q-quantile.
func windowQuantile(outs []txnOutcome, elapsed time.Duration, q float64) float64 {
	n, d := windows(elapsed)
	lat := make([][]float64, n)
	for _, o := range outs {
		if w := int(o.at / d); w < n {
			lat[w] = append(lat[w], ms(o.lat))
		}
	}
	var v []float64
	for _, l := range lat {
		if len(l) > 0 {
			v = append(v, quantile(l, q))
		}
	}
	return median(v)
}

// recoveryFailFrac is the share of cycles whose recovery was refused,
// errored or did not catch up before the cap.
func recoveryFailFrac(cycles []cycleOutcome) float64 {
	if len(cycles) == 0 {
		return 0
	}
	n := 0
	for _, c := range cycles {
		if c.failed() {
			n++
		}
	}
	return float64(n) / float64(len(cycles))
}

// quantile is the nearest-rank q-quantile of v (v is not modified); NaN
// when v is empty.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// median is the middle value of v (mean of the two middle values for an
// even count); NaN when v is empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
