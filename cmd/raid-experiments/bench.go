package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"minraid/internal/experiment"
)

// runBench drives the soak throughput bench subcommand:
//
//	raid-experiments bench                       # 200 txns, serial vs concurrent(8)
//	raid-experiments bench -txns 400 -conc 16
//	raid-experiments bench -rate 500             # paced open-loop latency view
//	raid-experiments bench -o BENCH_soak.json
//	raid-experiments bench -baseline BENCH_baseline.json -min-ratio 0.3
//	raid-experiments bench -wan wan3             # geo: rowaa vs epoch commit
//	raid-experiments bench -wan wan3 -commit epoch
//
// It runs the same seeded workload twice over durably-logged (fsync)
// stores — once serially, once interleaved with WAL group commit — writes
// the machine-readable BENCH_soak.json, and exits non-zero if either pass
// fails its consistency audit or, with -baseline, if either pass's
// throughput falls below min-ratio of the same pass in the committed
// baseline.
//
// With -wan the comparison changes axis: both passes run interleaved at
// the same degree over the compiled WAN link matrix, once with
// per-transaction ROWAA commit and once with epoch-batched commit, and
// the report goes to BENCH_wan.json. -commit rowaa or epoch runs a
// single pass and merges it into an existing report at the output path,
// so the two modes can be run as separate invocations of the identical
// seeded workload.
func runBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	var (
		txns       = fs.Int("txns", 200, "transactions per pass")
		sites      = fs.Int("sites", 4, "database sites (with -wan: 0 defaults to 6)")
		items      = fs.Int("items", 64, "database items")
		conc       = fs.Int("conc", 8, "concurrent pass: per-site transaction degree and in-flight bound")
		degree     = fs.Int("degree", 0, "copies per item, placed round-robin (0 or >= -sites: full replication; partial replication forces both passes serial)")
		rate       = fs.Float64("rate", 0, "open-loop arrival rate in txn/s for the concurrent pass (0: unpaced peak-throughput comparison)")
		delay      = fs.Duration("delay", 500*time.Microsecond, "per-hop communication cost")
		seed       = fs.Int64("seed", 1987, "workload RNG seed")
		wan        = fs.String("wan", "", "WAN profile: bench rowaa vs epoch-batched commit over the compiled link matrix instead of serial vs concurrent (try wan2, wan3, wan5)")
		commitMode = fs.String("commit", "both", "with -wan: both (one invocation, two passes), or rowaa / epoch (single pass, merged into the report at -o)")
		commitLen  = fs.Duration("commit-epoch", 2*time.Millisecond, "with -wan: epoch length of the batched-commit pass")
		out        = fs.String("o", "", "output path for the JSON report (default BENCH_soak.json, or BENCH_wan.json with -wan; empty after explicit -o=: stdout summary only)")
		baseline   = fs.String("baseline", "", "committed report to regression-check throughput against, pass by pass (serial and concurrent, or rowaa and epoch with -wan)")
		minRatio   = fs.Float64("min-ratio", 0.3, "fail if any pass's ops/sec < min-ratio x the baseline's same pass (generous: CI runners vary)")
	)
	fs.Parse(args)
	outSet, sitesSet, itemsSet := false, false, false
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "o":
			outSet = true
		case "sites":
			sitesSet = true
		case "items":
			itemsSet = true
		}
	})
	if !outSet {
		if *wan != "" {
			*out = "BENCH_wan.json"
		} else {
			*out = "BENCH_soak.json"
		}
	}

	if *wan != "" {
		if !sitesSet {
			*sites = 0 // let the WAN bench default apply (6: two per wan3 region)
		}
		if !itemsSet {
			*items = 0 // WAN bench default (256: measure the commit protocol, not lock conflicts)
		}
		runWANBenchCmd(*wan, *commitMode, *commitLen, *txns, *sites, *items, *conc, *rate, *seed, *out, *baseline, *minRatio)
		return
	}

	header(fmt.Sprintf("Soak throughput bench: serial vs concurrent(%d)+group-commit, %d txns", *conc, *txns))
	rep, err := experiment.RunSoakBench(experiment.SoakBenchConfig{
		Base: experiment.Config{
			Sites: *sites, Items: *items,
			Delay: *delay, Seed: *seed,
			ReplicationDegree: *degree,
		},
		Txns:        *txns,
		Concurrency: *conc,
		Rate:        *rate,
	})
	if err != nil {
		fail(err)
	}
	finishBench(rep, *out, *baseline, *minRatio, func(r *experiment.BenchReport) []benchPass {
		return []benchPass{{"serial", r.Serial}, {"concurrent", r.Concurrent}}
	})
}

// runWANBenchCmd drives the -wan variant: rowaa vs epoch-batched commit
// over the same compiled WAN link matrix and the same seeded workload.
// mode both runs the two passes in one invocation; rowaa or epoch runs
// one pass and merges it into whatever report already sits at out.
func runWANBenchCmd(profile, mode string, commitLen time.Duration, txns, sites, items, conc int, rate float64, seed int64, out, baseline string, minRatio float64) {
	cfg := experiment.WANBenchConfig{
		Base: experiment.Config{
			Sites: sites, Items: items, Seed: seed,
		},
		Profile:     profile,
		Txns:        txns,
		Concurrency: conc,
		Rate:        rate,
		CommitEpoch: commitLen,
	}
	var rep *experiment.WANBenchReport
	var err error
	switch mode {
	case "both", "":
		header(fmt.Sprintf("WAN commit bench: rowaa vs epoch(%v) on %s, %d txns, degree %d", commitLen, profile, txns, conc))
		rep, err = experiment.RunWANBench(cfg)
	case "rowaa", "epoch":
		header(fmt.Sprintf("WAN commit bench: %s pass on %s, %d txns, degree %d", mode, profile, txns, conc))
		rep, err = experiment.RunWANBenchOne(cfg, mode)
	default:
		fail(fmt.Errorf("unknown commit mode %q (want both, rowaa or epoch)", mode))
	}
	if err != nil {
		fail(err)
	}
	if out != "" {
		mergeWANReport(rep, out)
	}
	finishBench(rep, out, baseline, minRatio, func(r *experiment.WANBenchReport) []benchPass {
		return []benchPass{{"wan rowaa", r.ROWAA}, {"wan epoch", r.Epoch}}
	})
}

// benchPass is one named pass of a bench report; mode is nil when the
// report lacks that pass.
type benchPass struct {
	name string
	mode *experiment.BenchMode
}

// finishBench prints rep, writes it as JSON to out (unless empty) and,
// with a baseline path, gates the throughput of every pass against the
// same pass of the committed report there: the passes being optimised
// (concurrent, epoch) are gated as well as the serial anchor, while
// minRatio absorbs runner-to-runner hardware variance. Any failure exits
// non-zero.
func finishBench[R fmt.Stringer](rep R, out, baseline string, minRatio float64, passes func(R) []benchPass) {
	fmt.Println()
	fmt.Print(rep)
	if out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %s\n", out)
	}
	if baseline == "" {
		return
	}
	if err := checkBaseline(rep, baseline, minRatio, passes); err != nil {
		fmt.Fprintln(os.Stderr, "raid-experiments: bench:", err)
		os.Exit(1)
	}
}

// mergeWANReport folds the other commit mode's pass from an existing
// report at path into rep, provided it came from the identical workload
// (same WAN fingerprint, seed, transaction count, degree and pacing) —
// this is what lets `-commit rowaa` and `-commit epoch` invocations
// accumulate into one BENCH_wan.json.
func mergeWANReport(rep *experiment.WANBenchReport, path string) {
	if rep.ROWAA != nil && rep.Epoch != nil {
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return // nothing to merge
	}
	var old experiment.WANBenchReport
	if err := json.Unmarshal(data, &old); err != nil || old.Schema != rep.Schema {
		return
	}
	if old.WANFingerprint != rep.WANFingerprint || old.Seed != rep.Seed ||
		old.Concurrency != rep.Concurrency || old.RateTxnPerSec != rep.RateTxnPerSec {
		fmt.Printf("note: %s is from a different configuration; not merging its passes\n", path)
		return
	}
	if rep.ROWAA == nil && old.ROWAA != nil && (rep.Epoch == nil || rep.Epoch.Txns == old.ROWAA.Txns) {
		rep.ROWAA = old.ROWAA
		fmt.Printf("merged rowaa pass from %s\n", path)
	}
	if rep.Epoch == nil && old.Epoch != nil && old.CommitEpochMs == rep.CommitEpochMs &&
		(rep.ROWAA == nil || rep.ROWAA.Txns == old.Epoch.Txns) {
		rep.Epoch = old.Epoch
		fmt.Printf("merged epoch pass from %s\n", path)
	}
	if rep.ROWAA != nil && rep.Epoch != nil && rep.ROWAA.OpsPerSec > 0 {
		rep.SpeedupX = rep.Epoch.OpsPerSec / rep.ROWAA.OpsPerSec
	}
}

// checkBaseline compares the throughput of each pass present in both rep
// and the committed report at path, and fails if any falls below minRatio
// of its baseline or if the two reports share no pass.
func checkBaseline[R any](rep R, path string, minRatio float64, passes func(R) []benchPass) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base R
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	got, gated := passes(rep), 0
	for i, b := range passes(base) {
		g := got[i].mode
		if b.mode == nil || b.mode.OpsPerSec <= 0 || g == nil {
			continue
		}
		gated++
		want, have := b.mode.OpsPerSec, g.OpsPerSec
		floor := want * minRatio
		if have < floor {
			return fmt.Errorf("%s throughput regression: %.1f txn/s < %.1f (%.0f%% of baseline %.1f)",
				b.name, have, floor, minRatio*100, want)
		}
		fmt.Printf("baseline check: %s %.1f txn/s >= %.1f (%.0f%% of committed %.1f) ok\n",
			b.name, have, floor, minRatio*100, want)
	}
	if gated == 0 {
		return fmt.Errorf("baseline %s and this run have no pass with ops/sec in common", path)
	}
	return nil
}
