package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"minraid/internal/core"
)

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(buf, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// smoke runs a workload briefly and returns the parsed JSON line and the
// printed output.
func smoke(t *testing.T, name string, trace bool) (map[string]any, string) {
	t.Helper()
	r, err := bench(options{workload: name, seed: 7, seconds: 0.3, trace: trace, workdir: t.TempDir()}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := r.print(&out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var js map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	if !r.correct {
		t.Fatalf("%s failed its gate:\n%s", name, out.String())
	}
	return js, out.String()
}

// checkMetrics asserts the JSON carries exactly the named metrics with
// their units, and the printed lines carry each with a sample count.
func checkMetrics(t *testing.T, js map[string]any, printed string, want map[string]string) {
	t.Helper()
	ms := js["metrics"].(map[string]any)
	if len(ms) != len(want) {
		t.Errorf("JSON has %d metrics, want %d", len(ms), len(want))
	}
	for name, unit := range want {
		m, ok := ms[name].(map[string]any)
		if !ok {
			t.Errorf("JSON lacks %s", name)
			continue
		}
		if m["unit"] != unit {
			t.Errorf("%s unit %v, want %s", name, m["unit"], unit)
		}
		if _, ok := m["value"].(float64); !ok {
			t.Errorf("%s value %v is not a number", name, m["value"])
		}
		if !strings.Contains(printed, "\n"+name+" ") || !strings.Contains(printed, " "+unit+" ") {
			t.Errorf("printed output lacks %s with unit %s", name, unit)
		}
	}
	for _, k := range []string{"correct", "attempted", "failed"} {
		if _, ok := js[k]; !ok {
			t.Errorf("JSON lacks %s", k)
		}
	}
	if js["attempted"].(float64) < 1 {
		t.Errorf("attempted = %v", js["attempted"])
	}
}

func TestSmokeEveryWorkload(t *testing.T) {
	f := loadBenchmarkFile(t)
	e2e := map[string]string{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range f.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			js, printed := smoke(t, s.name, false)
			checkMetrics(t, js, printed, e2e)
			for _, name := range []string{"abort_frac", "failover_ms", "recover_ms", "catchup_ms", "catchup_txns", "recovery_fail_frac", "txn_p99_ms"} {
				if !strings.Contains(printed, "\n"+name+" ") {
					t.Errorf("printed output lacks %s", name)
				}
			}
			js, printed = smoke(t, s.name, true)
			checkMetrics(t, js, printed, layer)
		})
	}
}

func TestBenchmarkFileMatches(t *testing.T) {
	f := loadBenchmarkFile(t)
	var workloads []string
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	var names []string
	for _, s := range specs {
		if s.unlisted == "" {
			names = append(names, s.name)
		}
	}
	if !reflect.DeepEqual(workloads, names) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, names)
	}
	var e2e []string
	for _, m := range f.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !reflect.DeepEqual(e2e, endToEndNames) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", e2e, endToEndNames)
	}
}

func TestUnknownWorkloadRefused(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"--workload", "nope", "--workdir", t.TempDir()}, &out, &errb); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if strings.Contains(out.String(), "{") {
		t.Errorf("printed a result for an unknown workload: %s", out.String())
	}
}

// TestErroredTxnCounted drives a transaction into a closed cluster: the
// call errors, and the outcome must count as an abort, at the timeout.
func TestErroredTxnCounted(t *testing.T) {
	s := specByName("serial-mem")
	in, err := s.build(t.TempDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	txns := genInputs(s.gen(1), 3)
	p := newPhase(s, in, nil, txns)
	p.start = time.Now()
	if res, _ := p.exec(0, 0); res == nil || !res.Committed {
		t.Fatalf("first txn: %+v", res)
	}
	in.close()
	if res, _ := p.exec(1, 1); res != nil {
		t.Fatalf("txn on a closed cluster returned %+v", res)
	}
	p.n, p.outs = 2, p.outs[:2]
	o := p.outs[1]
	if !o.errored || o.lat != managerTimeout {
		t.Fatalf("errored outcome %+v, want errored at %v", o, managerTimeout)
	}
	tt := tally(p.outs)
	if tt.errored != 1 || tt.abortFrac() != 0.5 {
		t.Errorf("tally %+v abort_frac %v, want 1 errored and 0.5", tt, tt.abortFrac())
	}
	if got := quantile(latencies(p.outs), 0.99); got != ms(managerTimeout) {
		t.Errorf("p99 %v ms, want the timeout %v ms", got, ms(managerTimeout))
	}
}

func TestAbortAccounting(t *testing.T) {
	outs := []txnOutcome{
		{lat: time.Millisecond, committed: true},
		{lat: 2 * time.Millisecond, reason: "lock acquisition timed out"},
		{lat: managerTimeout, errored: true},
		{lat: 3 * time.Millisecond, committed: true},
	}
	tt := tally(outs)
	if tt.committed != 2 || tt.aborted != 1 || tt.errored != 1 {
		t.Fatalf("tally %+v", tt)
	}
	if f := tt.abortFrac(); f != 0.5 {
		t.Errorf("abort_frac %v, want 0.5", f)
	}
	lat := latencies(outs)
	if len(lat) != 4 {
		t.Errorf("latencies cover %d txns, want all 4", len(lat))
	}
	if q := quantile(lat, 0.5); q != 2 {
		t.Errorf("p50 %v ms, want the aborted txn's 2 ms", q)
	}
	if q := quantile(lat, 0.99); q != ms(managerTimeout) {
		t.Errorf("p99 %v ms, want the errored txn's timeout", q)
	}
}

func TestCappedCycleCounted(t *testing.T) {
	cycles := []cycleOutcome{
		{catchup: 40 * time.Millisecond, catchupTxns: 600, recover: time.Millisecond},
		{capped: true, catchupTxns: catchupCap, recover: time.Millisecond},
		{refused: true},
		{catchup: 60 * time.Millisecond, catchupTxns: 800, recover: time.Millisecond},
	}
	if f := recoveryFailFrac(cycles); f != 0.5 {
		t.Errorf("recovery_fail_frac %v, want 0.5", f)
	}
	p := &phase{cycles: cycles, elapsed: time.Second}
	got := map[string]metric{}
	for _, m := range endToEnd(p, []float64{1}) {
		got[m.name] = m
	}
	if m := got["catchup_ms"]; m.value != 50 || m.n != 2 {
		t.Errorf("catchup_ms %+v, want median 50 over the 2 caught-up cycles", m)
	}
	if m := got["recovery_fail_frac"]; m.value != 0.5 || m.n != 4 {
		t.Errorf("recovery_fail_frac %+v", m)
	}
}

func TestWindowedMedians(t *testing.T) {
	var outs []txnOutcome
	// Three one-second windows with 10, 30 and 20 commits; a partial
	// fourth window is ignored.
	for w, n := range []int{10, 30, 20, 99} {
		for i := 0; i < n; i++ {
			at := time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond
			outs = append(outs, txnOutcome{at: at, lat: time.Duration(w+1) * time.Millisecond, committed: true})
		}
	}
	if r := windowRate(outs, 3500*time.Millisecond); r != 20 {
		t.Errorf("windowRate %v, want the median window's 20/s", r)
	}
	if q := windowQuantile(outs, 3500*time.Millisecond, 0.9); q != 2 {
		t.Errorf("windowQuantile %v, want the median window's 2 ms", q)
	}
}

func TestInputsMatchGenerator(t *testing.T) {
	for _, s := range specs {
		g := s.gen(3)
		in := genInputs(g, 100)
		for i := 0; i < 100; i++ {
			is := in.txn(i)
			if want := g.Next(core.TxnID(i + 1)); is.id != core.TxnID(i+1) || !reflect.DeepEqual(is.ops, want) {
				t.Fatalf("%s txn %d: %v, want %v", s.name, i, is.ops, want)
			}
		}
	}
	// Past the pool, shapes repeat under fresh IDs.
	in := genInputs(specs[0].gen(3), poolSize+1)
	a, b := in.txn(0), in.txn(poolSize)
	if b.id != poolSize+1 || len(a.ops) != len(b.ops) || a.ops[0].Item != b.ops[0].Item {
		t.Errorf("txn %d does not repeat shape 0 under a fresh ID: %v vs %v", poolSize, b, a)
	}
}

func TestCodecModelRoundTrips(t *testing.T) {
	s := specByName("fail-recover")
	in, err := s.build(t.TempDir(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	p := newPhase(s, in, newSpans(1024), genInputs(s.gen(1), 50))
	p.start = time.Now()
	for i := 0; i < 50; i++ {
		p.exec(i, core.SiteID(i%s.sites))
	}
	p.n = 50
	p.cycles = []cycleOutcome{{site: 1, locksAtRecv: 10}}
	counts := map[string]uint64{}
	for _, k := range modelledKinds {
		counts[k.String()] = 1
	}
	d, bytes, n := codecModel(p, counts)
	if len(p.notes) != 0 {
		t.Fatalf("codec model notes: %v", p.notes)
	}
	if d <= 0 || bytes <= 0 || n == 0 {
		t.Errorf("codec model %v, %v bytes over %d envelopes", d, bytes, n)
	}
	for _, k := range modelledKinds {
		if len(modelBodies(p)[k]) == 0 {
			t.Errorf("no model envelope for %s", k)
		}
	}
}
