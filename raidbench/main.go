// Command raidbench is the repository's benchmark. It runs one seeded
// workload through the public cluster.New path, measures it for a fixed
// time, checks the run's correctness and prints every metric by name, with
// unit and sample count, ending with one JSON line:
//
//	go run . --workload serial-mem --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics of an untraced run. --trace 1
// runs the workload untraced and then again traced, and reports the
// per-layer metrics of the traced run (see README.md).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"minraid/internal/core"
	"minraid/internal/workload"
)

// setupRounds is how many times a run builds its cluster; setup_s is the
// median. setupGap spaces the builds out, so that the median spans about
// half a second rather than one burst the host may stall (the previous
// run's WAL files are still being written back, for instance).
const (
	setupRounds = 31
	setupGap    = 15 * time.Millisecond
)

// tracedTxnCap bounds the traced phase's transactions, which bounds the
// memory its spans and the program's trace ring take.
const tracedTxnCap = 30000

// eventsPerTxn sizes the program's trace recorder for the traced phase.
const eventsPerTxn = 12

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("raidbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var tr int
	fs.StringVar(&o.workload, "workload", "", "workload: serial-mem, concurrent-wal or fail-recover")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long each measured phase runs")
	fs.IntVar(&tr, "trace", 0, "0: end-to-end metrics of an untraced run; 1: per-layer metrics of a traced run")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for WAL files and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = tr == 1
	if tr != 0 && tr != 1 {
		fmt.Fprintf(stderr, "raidbench: --trace must be 0 or 1\n")
		return 2
	}
	r, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
		return 1
	}
	if err := r.print(stdout); err != nil {
		fmt.Fprintf(stderr, "raidbench: %v\n", err)
		return 1
	}
	return 0
}

// result is everything one invocation reports.
type result struct {
	o         options
	metrics   []metric
	correct   bool
	attempted int
	failed    int
	lines     []string // diagnostics printed before the metrics
}

// bench runs one invocation: set-up, the untraced phase and, with --trace
// 1, the traced phase.
func bench(o options, log io.Writer) (*result, error) {
	s := specByName(o.workload)
	if s == nil {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	tmp := filepath.Join(o.workdir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	d := time.Duration(o.seconds * float64(time.Second))

	// Inputs, from the seed, before anything is timed.
	n := int(float64(s.perSecond) * o.seconds)
	if s.failRecover {
		n += failPhaseTxns + catchupCap + catchupPoll
	}
	gs := time.Now()
	txns := genInputs(s.gen(o.seed), n)
	fmt.Fprintf(log, "# generated %d inputs in %v\n", n, time.Since(gs))
	first := int(uint64(workload.DeriveSeed(o.seed, 0)) % uint64(s.sites))

	r := &result{o: o, correct: true}
	if s.unlisted != "" {
		r.lines = append(r.lines, "note: BENCHMARK.json does not list this workload: "+s.unlisted)
	}
	setups := make([]float64, 0, setupRounds)
	var in *instance
	for i := 0; i < setupRounds; i++ {
		runtime.GC()
		st := time.Now()
		b, err := s.build(tmp, nil, 0)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(st).Seconds())
		if i < setupRounds-1 {
			b.close()
			time.Sleep(setupGap)
		} else {
			in = b
		}
	}

	fmt.Fprintf(log, "# raidbench %s seed=%d seconds=%g trace=%t: %d inputs, first failed site %d\n",
		s.name, o.seed, o.seconds, o.trace, txns.len(), first)
	p := newPhase(s, in, nil, txns)
	runtime.GC()
	p.drive(d, first)
	untraced := tally(p.outs)
	untracedTP := float64(untraced.committed) / p.elapsed.Seconds()
	r.gate("untraced", p)
	in.close()

	r.lines = append(r.lines, latencyLine(p.outs))
	if !o.trace {
		r.metrics = endToEnd(p, setups)
		return r, nil
	}

	m := min(txns.len(), tracedTxnCap)
	sp := newSpans(m * 12)
	tin, err := s.build(tmp, sp, m*eventsPerTxn)
	if err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	defer tin.close()
	tp := newPhase(s, tin, sp, txns.prefix(m))
	before := tin.c.Tracer().MessageCounts()
	runtime.GC()
	tp.drive(d, first)
	msgs := tin.c.Tracer().MessageCounts()
	for k, v := range before {
		msgs[k] -= v
	}
	ev := len(tin.c.Tracer().Events())
	if ev >= m*eventsPerTxn {
		r.lines = append(r.lines, fmt.Sprintf("note: trace ring full (%d events); phase metrics undercount", ev))
	}
	if u := unmodelledKinds(msgs); len(u) > 0 {
		r.lines = append(r.lines, "note: message kinds outside the per-kind breakdown: "+strings.Join(u, " "))
	}
	traced := tally(tp.outs)
	r.metrics = perLayer(layerInput{
		p:          tp,
		msgs:       msgs,
		walBytes:   tin.walBytes(),
		untracedTP: untracedTP,
		tracedTP:   float64(traced.committed) / tp.elapsed.Seconds(),
	})
	r.gate("traced", tp)
	path := filepath.Join(o.workdir, "spans-"+s.name+".tsv.gz")
	if err := sp.write(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	r.lines = append(r.lines, fmt.Sprintf("spans: %d written to %s; program trace events: %d over %d txns", len(sp.all), path, ev, tp.n))
	return r, nil
}

// drive runs the phase's workload for d.
func (p *phase) drive(d time.Duration, first int) {
	if p.s.failRecover {
		p.runCycles(d, first)
	} else {
		p.runLoop(d)
	}
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p *phase, setups []float64) []metric {
	t := tally(p.outs)
	lat := latencies(p.outs)
	out := []metric{
		{"txn_per_s", windowRate(p.outs, p.elapsed), "1/s", t.issued},
		{"txn_p50_ms", orZero(quantile(lat, 0.50)), "ms", len(lat)},
		{"txn_p90_ms", orZero(windowQuantile(p.outs, p.elapsed, 0.90)), "ms", len(lat)},
		{"txn_p95_ms", orZero(windowQuantile(p.outs, p.elapsed, 0.95)), "ms", len(lat)},
		{"txn_p99_ms", orZero(windowQuantile(p.outs, p.elapsed, 0.99)), "ms", len(lat)},
		{"setup_s", median(setups), "s", len(setups)},
		{"abort_frac", t.abortFrac(), "frac", t.issued},
	}
	var failover, recov, catchup, catchupTxns []float64
	for _, c := range p.cycles {
		if c.hasFailover {
			failover = append(failover, ms(c.failover))
		}
		if c.recover > 0 {
			recov = append(recov, ms(c.recover))
		}
		if !c.failed() {
			catchup = append(catchup, ms(c.catchup))
			catchupTxns = append(catchupTxns, float64(c.catchupTxns))
		}
	}
	return append(out,
		metric{"failover_ms", orZero(median(failover)), "ms", len(failover)},
		metric{"recover_ms", orZero(median(recov)), "ms", len(recov)},
		metric{"catchup_ms", orZero(median(catchup)), "ms", len(catchup)},
		metric{"catchup_txns", orZero(median(catchupTxns)), "count", len(catchupTxns)},
		metric{"recovery_fail_frac", recoveryFailFrac(p.cycles), "frac", len(p.cycles)},
	)
}

// gate checks a phase's correctness and folds it into the verdict: the
// audit must pass, the fault-free workloads must leave no stale copy, all
// up sites must agree on their session vectors, and a single client's
// committed reads must return the latest committed writes. It also adds
// the phase's operations to attempted and failed.
func (r *result) gate(name string, p *phase) {
	t := tally(p.outs)
	r.attempted += t.issued + 2*len(p.cycles)
	r.failed += t.errored
	for _, c := range p.cycles {
		if c.failed() {
			r.failed++
		}
	}
	for _, n := range p.notes {
		r.lines = append(r.lines, name+": "+n)
	}
	var bad []string
	sid := p.sp.begin("cluster.Audit", -1, 0)
	p.sp.setCurrent(sid)
	rep, err := p.in.c.Audit()
	p.sp.end(sid)
	switch {
	case err != nil:
		bad = append(bad, fmt.Sprintf("audit errored: %v", err))
	case !rep.OK():
		bad = append(bad, rep.String())
		for i, v := range rep.Violations {
			if i == 20 {
				bad = append(bad, fmt.Sprintf("... %d more violations", len(rep.Violations)-i))
				break
			}
			bad = append(bad, "violation: "+v)
		}
	case !p.s.failRecover && rep.StaleCopies != 0:
		bad = append(bad, fmt.Sprintf("fault-free run left %d stale copies", rep.StaleCopies))
	}
	if n := vectorDisagreements(p.in); n != 0 {
		bad = append(bad, fmt.Sprintf("%d pairs of up sites disagree on their session vectors", n))
	}
	if p.reads != nil && p.reads.mismatches != 0 {
		bad = append(bad, fmt.Sprintf("%d committed reads did not return the latest committed write", p.reads.mismatches))
		bad = append(bad, p.reads.first...)
	}
	if len(bad) == 0 {
		checked := "reads not checked (concurrent clients)"
		if p.reads != nil {
			checked = "committed reads match the latest writes"
		}
		r.lines = append(r.lines, fmt.Sprintf("%s gate: OK (%s; vectors agree; %s)", name, rep, checked))
		return
	}
	r.correct = false
	r.lines = append(r.lines, name+" gate: FAILED")
	for _, b := range bad {
		r.lines = append(r.lines, "  "+b)
	}
	for i := 0; i < p.s.sites; i++ {
		s := p.in.c.Site(core.SiteID(i))
		r.lines = append(r.lines, fmt.Sprintf("  site %d %s session=%d vector=%s", i, s.State(), s.Session(), s.Vector()))
	}
}

// print writes the diagnostics, one line per metric, and the JSON result
// as the last line. The JSON carries the metrics BENCHMARK.json names for
// the run's mode; the lines above it carry every metric.
func (r *result) print(w io.Writer) error {
	for _, l := range r.lines {
		fmt.Fprintln(w, l)
	}
	names := endToEndNames
	if r.o.trace {
		names = nil
		for _, m := range r.metrics {
			if !cycleMetrics[m.name] {
				names = append(names, m.name)
			}
		}
	}
	gated := map[string]bool{}
	for _, n := range names {
		gated[n] = true
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := map[string]value{}
	for _, m := range r.metrics {
		fmt.Fprintf(w, "%-44s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
		if gated[m.name] {
			js[m.name] = value{m.value, m.unit}
		}
	}
	buf, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, max(r.attempted, 1), r.failed, js})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// endToEndNames are the end-to-end metrics BENCHMARK.json bounds: the ones
// every workload has, that are never zero and whose run-to-run spread fits
// a bound. The rest are printed above the JSON line (see README.md).
var endToEndNames = []string{"txn_per_s", "txn_p50_ms", "setup_s"}

// latencyLine renders the untraced run's whole-run latency distribution.
func latencyLine(outs []txnOutcome) string {
	lat := latencies(outs)
	var b strings.Builder
	b.WriteString("latency ms:")
	for _, q := range []float64{0.5, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		fmt.Fprintf(&b, " p%g=%.4f", 100*q, orZero(quantile(lat, q)))
	}
	return b.String()
}
