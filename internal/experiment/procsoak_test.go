package experiment

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestProcSoakCrashCycles is the acceptance pin for the process fabric: a
// soak over exec'd raidsrv sites must survive at least two SIGKILL +
// re-exec/WAL-replay/type-1 cycles with every per-epoch audit clean. It
// builds raidsrv from source and delivers real signals, so it is skipped
// under -short and on non-Linux platforms.
func TestProcSoakCrashCycles(t *testing.T) {
	if testing.Short() {
		t.Skip("process fabric soak skipped in -short mode")
	}
	if runtime.GOOS != "linux" {
		t.Skip("process fabric soak requires SIGKILL semantics; linux only")
	}
	cfg := SoakConfig{
		Base: Config{
			Sites:      3,
			Items:      20,
			AckTimeout: 200 * time.Millisecond,
		},
		Seeds:         []int64{1},
		EpochsPerSeed: 2,
		TxnsPerEpoch:  30,
		Fabric:        "proc",
		WorkDir:       t.TempDir(),
		Logf:          t.Logf,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatal(err)
	}
	kills, restarts := 0, 0
	for _, e := range res.Epochs {
		kills += e.Kills
		restarts += e.Restarts
		if !e.AuditOK {
			t.Errorf("seed %d epoch %d audit failed: %s", e.Seed, e.Epoch, e.AuditDetail)
		}
	}
	// The acceptance bar: at least two full crash cycles actually
	// happened, and they were real restarts (exec + WAL replay), not
	// skipped events.
	if kills < 2 || restarts < 2 {
		t.Fatalf("want >= 2 SIGKILL/restart cycles, got %d kills, %d restarts", kills, restarts)
	}
	if !res.OK() {
		t.Fatalf("proc soak violations:\n%s", res)
	}
	if res.Committed == 0 {
		t.Fatal("no transaction ever committed")
	}
}

// TestProcSoakRejectsInProcessMechanisms pins the capability boundary:
// chaos, partitions, WAN links, epoch commit, scrub, the in-process WAL
// carry and the memory transport are simulation-side mechanisms and must
// be refused, not silently ignored, under the process fabric — with one
// error naming every such option that was set.
func TestProcSoakRejectsInProcessMechanisms(t *testing.T) {
	base := SoakConfig{Fabric: "proc", Seeds: []int64{1}}
	bad := map[string]func(*SoakConfig){
		"Chaos":       func(c *SoakConfig) { c.Chaos.Drop = 0.1 },
		"Partitions":  func(c *SoakConfig) { c.Partitions = true },
		"WANProfile":  func(c *SoakConfig) { c.WANProfile = "wan3" },
		"CommitEpoch": func(c *SoakConfig) { c.CommitEpoch = 2 * time.Millisecond },
		"Scrub":       func(c *SoakConfig) { c.Scrub = true },
		"Transport":   func(c *SoakConfig) { c.Transport = "memory" },
		"WALDir":      func(c *SoakConfig) { c.WALDir = t.TempDir() },
	}
	all := base
	for name, mutate := range bad {
		cfg := base
		mutate(&cfg)
		mutate(&all)
		_, err := RunSoak(cfg)
		if err == nil {
			t.Errorf("%s: in-process mechanism accepted under proc fabric", name)
			continue
		}
		if !strings.Contains(err.Error(), name) {
			t.Errorf("%s: error does not name the option: %v", name, err)
		}
		for other := range bad {
			if other != name && strings.Contains(err.Error(), other) {
				t.Errorf("%s: error names %s, which was not set: %v", name, other, err)
			}
		}
	}
	_, err := RunSoak(all)
	if err == nil {
		t.Fatal("every in-process mechanism at once accepted under proc fabric")
	}
	for name := range bad {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("combined error does not name %s: %v", name, err)
		}
	}
	if _, err := RunSoak(SoakConfig{Fabric: "bogus"}); err == nil {
		t.Error("unknown fabric accepted")
	}
}
