package core

import (
	"encoding/json"
	"fmt"
)

// SnapshotVersion is the checkpoint format version written by Snapshot.
// Version 1 was the telemetry-only view without history rings; version 2
// carried the full round-trippable controller state; version 3 added the
// per-VM circuit breaker state so a kill-and-restore twin quarantines and
// re-admits VMs on exactly the same steps the dead incarnation would
// have; version 4 keeps only what Restore reads.
const SnapshotVersion = 4

// Snapshot is a JSON-serialisable view of the controller state after a
// Step. Since version 2 it is a complete checkpoint: Restore rebuilds a
// controller from it, so crash recovery resumes with the same credits,
// caps and consumption histories the dead incarnation had.
type Snapshot struct {
	Version    int          `json:"version"`
	Step       int64        `json:"step"`
	Node       string       `json:"node"`
	Cores      int          `json:"cores"`
	MaxFreqMHz int64        `json:"max_freq_mhz"`
	PeriodUs   int64        `json:"period_us"`
	VMs        []VMSnapshot `json:"vms"`
}

// VMSnapshot is one VM's controller state.
type VMSnapshot struct {
	Name     string         `json:"name"`
	CreditUs int64          `json:"credit_us"`
	VCPUs    []VCPUSnapshot `json:"vcpus"`

	// The circuit breaker (since version 3): phase as an integer
	// (0 closed, 1 open, 2 half-open) plus its two counters. All
	// omitempty, so a VM with a closed idle breaker — the overwhelming
	// steady state — costs no checkpoint bytes.
	Breaker            int `json:"breaker,omitempty"`
	BreakerFaultStreak int `json:"breaker_fault_streak,omitempty"`
	BreakerOpenLeft    int `json:"breaker_open_left,omitempty"`
}

// VCPUSnapshot is one vCPU's controller state.
type VCPUSnapshot struct {
	Index       int     `json:"index"`
	TID         int     `json:"tid"`
	LastCore    int     `json:"last_core"`
	ConsumedUs  int64   `json:"consumed_us"`
	CapUs       int64   `json:"cap_us"`
	EstimateUs  int64   `json:"estimate_us"`
	VirtFreqMHz float64 `json:"virt_freq_mhz"`
	PrevUsageUs int64   `json:"prev_usage_us"`
	Hist        []int64 `json:"hist,omitempty"`
	Warm        bool    `json:"warm,omitempty"`
	Degraded    bool    `json:"degraded,omitempty"`
	FailedSteps int     `json:"failed_steps,omitempty"`
}

// Snapshot captures the current controller state.
func (c *Controller) Snapshot() Snapshot {
	s := Snapshot{
		Version:    SnapshotVersion,
		Step:       c.steps,
		Node:       c.node.Name,
		Cores:      c.node.Cores,
		MaxFreqMHz: c.node.MaxFreqMHz,
		PeriodUs:   c.cfg.PeriodUs,
	}
	for _, st := range c.order {
		s.VMs = append(s.VMs, vmSnapshot(st))
	}
	return s
}

// vmSnapshot captures one VM's controller state — the unit both the
// whole-node Snapshot and the migration-time ExportVM serialise.
func vmSnapshot(st *VMState) VMSnapshot {
	vs := VMSnapshot{
		Name:               st.Info.Name,
		CreditUs:           st.CreditUs,
		Breaker:            int(st.Breaker.State),
		BreakerFaultStreak: st.Breaker.FaultStreak,
		BreakerOpenLeft:    st.Breaker.OpenLeft,
	}
	for _, v := range st.VCPUs {
		// nil (not empty) when there are no samples, so that the
		// omitempty encoding round-trips to an identical value.
		var hist []int64
		for i := 0; i < v.Hist.Len(); i++ {
			hist = append(hist, v.Hist.At(i))
		}
		vs.VCPUs = append(vs.VCPUs, VCPUSnapshot{
			Index:       v.Index,
			TID:         v.TID,
			LastCore:    v.LastCore,
			ConsumedUs:  v.LastU,
			CapUs:       v.CapUs,
			EstimateUs:  v.EstUs,
			VirtFreqMHz: v.FreqMHz,
			PrevUsageUs: v.PrevUsageUs,
			Hist:        hist,
			Warm:        v.warm,
			Degraded:    v.Degraded,
			FailedSteps: v.FailedSteps,
		})
	}
	return vs
}

// JSON renders the snapshot.
func (s Snapshot) JSON() ([]byte, error) { return json.MarshalIndent(s, "", "  ") }

// DecodeSnapshot parses and validates a checkpoint. It never panics on
// malformed input: any structural or semantic problem is returned as an
// error, so a corrupted checkpoint degrades a restart into a cold start
// instead of crashing the recovering controller.
//
// A version-3 checkpoint decodes too, as version 4: it is a version-4
// document plus keys nothing reads, so an upgrade keeps every wallet.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	switch s.Version {
	case SnapshotVersion:
	case 3:
		s.Version = SnapshotVersion
	default:
		return Snapshot{}, fmt.Errorf("core: checkpoint version %d, want %d or 3", s.Version, SnapshotVersion)
	}
	if s.Step < 0 {
		return Snapshot{}, fmt.Errorf("core: checkpoint step %d is negative", s.Step)
	}
	if s.Cores <= 0 || s.MaxFreqMHz <= 0 {
		return Snapshot{}, fmt.Errorf("core: checkpoint node shape %d cores @ %d MHz invalid",
			s.Cores, s.MaxFreqMHz)
	}
	if s.PeriodUs <= 0 {
		return Snapshot{}, fmt.Errorf("core: checkpoint period %d invalid", s.PeriodUs)
	}
	seen := map[string]bool{}
	for i, vm := range s.VMs {
		if vm.Name == "" {
			return Snapshot{}, fmt.Errorf("core: checkpoint VM %d has no name", i)
		}
		if seen[vm.Name] {
			return Snapshot{}, fmt.Errorf("core: checkpoint VM %q duplicated", vm.Name)
		}
		seen[vm.Name] = true
		if err := validateVMSnapshot(vm); err != nil {
			return Snapshot{}, err
		}
	}
	return s, nil
}

// validateVMSnapshot checks one VM entry's semantic invariants — shared
// by DecodeSnapshot for whole checkpoints and by AdoptVM for the
// single-VM snapshots a migration carries. It never panics on malformed
// input.
func validateVMSnapshot(vm VMSnapshot) error {
	if vm.Name == "" {
		return fmt.Errorf("core: checkpoint VM has no name")
	}
	if vm.CreditUs < 0 {
		return fmt.Errorf("core: checkpoint VM %q credit %d is negative",
			vm.Name, vm.CreditUs)
	}
	if vm.Breaker < int(BreakerClosed) || vm.Breaker > int(BreakerHalfOpen) {
		return fmt.Errorf("core: checkpoint VM %q breaker phase %d unknown",
			vm.Name, vm.Breaker)
	}
	if vm.BreakerFaultStreak < 0 || vm.BreakerOpenLeft < 0 {
		return fmt.Errorf("core: checkpoint VM %q has negative breaker counters",
			vm.Name)
	}
	if vm.Breaker == int(BreakerOpen) && vm.BreakerOpenLeft < 1 {
		return fmt.Errorf("core: checkpoint VM %q breaker open with no quarantine steps left",
			vm.Name)
	}
	for j, v := range vm.VCPUs {
		if v.Index != j {
			return fmt.Errorf("core: checkpoint VM %q vCPU %d has index %d, want positional",
				vm.Name, j, v.Index)
		}
		if v.CapUs < 0 || v.EstimateUs < 0 || v.ConsumedUs < 0 || v.PrevUsageUs < 0 {
			return fmt.Errorf("core: checkpoint %s/vcpu%d has negative accounting",
				vm.Name, v.Index)
		}
		if v.FailedSteps < 0 {
			return fmt.Errorf("core: checkpoint %s/vcpu%d has a negative failed-step counter",
				vm.Name, v.Index)
		}
		for _, u := range v.Hist {
			if u < 0 {
				return fmt.Errorf("core: checkpoint %s/vcpu%d has negative history sample",
					vm.Name, v.Index)
			}
		}
	}
	return nil
}
