package core_test

import (
	"os"
	"path/filepath"
	"testing"

	"vfreq/internal/core"
	"vfreq/internal/platform"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// simRig is one simulated node with a controller on it and a file store
// for its checkpoints.
type simRig struct {
	mgr   *vm.Manager
	ctrl  *core.Controller
	store platform.FileStore
}

func newSimRig(t *testing.T, cfg core.Config) *simRig {
	t.Helper()
	mgr := testNode(t, 4)
	if _, err := mgr.Provision("web", vm.Small(), []workload.Source{
		&workload.Bursty{PeriodUs: 3_000_000, Duty: 0.4, High: 1, Low: 0.1},
		&workload.Bursty{PeriodUs: 5_000_000, Duty: 0.6, High: 0.9, Low: 0.2},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Provision("batch", vm.Medium(), busySources(4)); err != nil {
		t.Fatal(err)
	}
	ctrl, err := core.New(platform.NewSim(mgr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	store := platform.FileStore{Path: filepath.Join(t.TempDir(), "vfreq-ckpt.json")}
	return &simRig{mgr: mgr, ctrl: ctrl, store: store}
}

// save persists the controller's checkpoint through the file store.
func (r *simRig) save() error {
	data, err := r.ctrl.Snapshot().JSON()
	if err != nil {
		return err
	}
	return r.store.Save(data)
}

// stepAndSave steps the rig and checkpoints it, failing t on either error.
func (r *simRig) stepAndSave(t *testing.T) {
	t.Helper()
	r.step(t)
	if err := r.save(); err != nil {
		t.Fatal(err)
	}
}

// load decodes the last checkpoint in the rig's store.
func (r *simRig) load(t *testing.T) core.Snapshot {
	t.Helper()
	data, err := r.store.Load()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := core.DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

func (r *simRig) step(t *testing.T) {
	t.Helper()
	r.mgr.Machine().Advance(r.ctrl.Config().PeriodUs)
	if err := r.ctrl.Step(); err != nil {
		t.Fatal(err)
	}
}

// The PR's acceptance test: kill the controller mid-run, restore a fresh
// one from the checkpoint, and compare against an identical uninterrupted
// twin. The sim is deterministic, so the restored controller must track
// the twin exactly — same step counter, credits and per-vCPU caps.
func TestKillAndRestoreConvergesWithUninterruptedTwin(t *testing.T) {
	cfg := core.DefaultConfig()
	ref := newSimRig(t, cfg) // never interrupted
	vic := newSimRig(t, cfg) // checkpointed every step, killed at step 10, restored, resumed

	for i := 0; i < 10; i++ {
		ref.step(t)
		vic.stepAndSave(t)
	}

	// Kill: drop the controller on the floor. Recover: build a fresh one
	// on the same (still running) node and restore the last checkpoint.
	reborn, err := core.New(platform.NewSim(vic.mgr), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := reborn.Restore(vic.load(t))
	if err != nil {
		t.Fatal(err)
	}
	if rr.CheckpointStep != 10 || len(rr.Adopted) != 2 || len(rr.ColdStarted)+len(rr.Dropped)+len(rr.Deferred) != 0 {
		t.Fatalf("restore report: %s", rr.String())
	}
	if reborn.Steps() != 10 {
		t.Fatalf("restored step counter = %d, want 10", reborn.Steps())
	}
	vic.ctrl = reborn

	for i := 0; i < 10; i++ {
		ref.step(t)
		vic.stepAndSave(t)
	}

	if got, want := vic.ctrl.Steps(), ref.ctrl.Steps(); got != want {
		t.Fatalf("step counters diverged: %d vs %d", got, want)
	}
	for _, name := range []string{"web", "batch"} {
		rv, vv := ref.ctrl.VM(name), vic.ctrl.VM(name)
		if rv == nil || vv == nil {
			t.Fatalf("VM %s missing after restore", name)
		}
		if rv.CreditUs != vv.CreditUs {
			t.Fatalf("%s credit diverged after restore: %d (ref) vs %d (restored)",
				name, rv.CreditUs, vv.CreditUs)
		}
		for j := range rv.VCPUs {
			if rv.VCPUs[j].CapUs != vv.VCPUs[j].CapUs {
				t.Fatalf("%s/vcpu%d cap diverged after restore: %d (ref) vs %d (restored)",
					name, j, rv.VCPUs[j].CapUs, vv.VCPUs[j].CapUs)
			}
		}
	}
	// The restored incarnation checkpoints through the same store.
	if got := vic.load(t).Step; got != 20 {
		t.Fatalf("last checkpoint step = %d, want 20", got)
	}
}

// A checkpoint written through the file store survives a write fault:
// the temp-then-rename protocol leaves the previous checkpoint intact.
func TestCheckpointWriteFaultKeepsPreviousCheckpoint(t *testing.T) {
	rig := newSimRig(t, core.DefaultConfig())
	rig.stepAndSave(t)
	good, err := rig.store.Load()
	if err != nil {
		t.Fatal(err)
	}

	// A directory squats on the temp path: the save cannot open its file.
	tmp := rig.store.Path + ".tmp"
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	rig.step(t)
	if err := rig.save(); err == nil {
		t.Fatal("save succeeded despite the write fault")
	}
	after, err := rig.store.Load()
	if err != nil {
		t.Fatalf("previous checkpoint lost: %v", err)
	}
	if string(after) != string(good) {
		t.Fatal("failed save corrupted the previous checkpoint")
	}

	// Fault cleared: checkpointing resumes and overwrites atomically.
	if err := os.Remove(tmp); err != nil {
		t.Fatal(err)
	}
	rig.stepAndSave(t)
	if got := rig.load(t).Step; got != 3 {
		t.Fatalf("latest checkpoint step = %d, want 3", got)
	}
}
