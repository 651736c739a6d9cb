// Package vfreq enables dynamic virtual frequency scaling for virtual
// machines, reproducing Cadorel & Rouvoy, "Enabling Dynamic Virtual
// Frequency Scaling for Virtual Machines in the Cloud" (IEEE CLUSTER
// 2022).
//
// The library attaches a virtual frequency (MHz) to each VM template and
// enforces it on the host with a six-stage feedback controller built on
// cgroup CPU bandwidth control: monitor → estimate (trend + triggers) →
// enforce guarantee + credits → auction spare cycles → free distribution
// → apply quotas. A frequency-aware BestFit placer (Eq. 7 of the paper)
// complements the controller at the cluster level.
//
// Two execution platforms are provided behind one interface: a simulated
// host (CFS-like scheduler, the cgroup/proc/sys pseudo-files the
// controller reads and writes, DVFS and an energy model — a stand-in for
// the paper's Grid'5000 nodes) and a real-Linux backend reading
// /sys/fs/cgroup directly. The controller code is identical on both.
//
// Quick start:
//
//	machine, _ := vfreq.NewMachine(vfreq.Chetemi())
//	mgr, _ := vfreq.NewManager(machine)
//	mgr.Provision("web", vfreq.Small(), nil)
//	ctrl, _ := vfreq.NewController(vfreq.NewSimHost(mgr), vfreq.DefaultConfig())
//	for {
//		machine.Advance(1_000_000) // one second of simulated time
//		ctrl.Step()
//	}
//
// See the examples directory for complete programs and the experiments
// API (Fig6 … Fig14, RunPlacementComparison) for the paper's evaluation.
package vfreq

import (
	"vfreq/internal/cluster"
	"vfreq/internal/core"
	"vfreq/internal/energy"
	"vfreq/internal/experiments"
	"vfreq/internal/host"
	"vfreq/internal/placement"
	"vfreq/internal/platform"
	"vfreq/internal/trace"
	"vfreq/internal/vm"
	"vfreq/internal/workload"
)

// Host machine modelling.
type (
	// MachineSpec describes a physical node's hardware.
	MachineSpec = host.Spec
	// Machine is a running simulated node.
	Machine = host.Machine
	// PowerModel maps utilisation and frequency to power draw.
	PowerModel = energy.PowerModel
)

// NewMachine boots a simulated machine from a spec.
func NewMachine(spec MachineSpec) (*Machine, error) { return host.New(spec) }

// Chetemi returns the paper's Intel evaluation node (Table IV).
func Chetemi() MachineSpec { return host.Chetemi() }

// Chiclet returns the paper's AMD evaluation node (Table IV).
func Chiclet() MachineSpec { return host.Chiclet() }

// Virtual machines.
type (
	// Template is a VM flavour: vCPUs, memory and the paper's virtual
	// frequency.
	Template = vm.Template
	// Instance is a provisioned VM.
	Instance = vm.Instance
	// Manager provisions and tracks instances on one machine.
	Manager = vm.Manager
)

// NewManager creates a VM manager on a machine.
func NewManager(m *Machine) (*Manager, error) { return vm.NewManager(m) }

// Small returns the paper's small template (2 vCPU @ 500 MHz).
func Small() Template { return vm.Small() }

// Medium returns the paper's medium template (4 vCPU @ 1200 MHz).
func Medium() Template { return vm.Medium() }

// Large returns the paper's large template (4 vCPU @ 1800 MHz).
func Large() Template { return vm.Large() }

// Workloads.
type (
	// Workload produces CPU demand for one vCPU thread.
	Workload = workload.Source
	// Bench is a multi-threaded benchmark with run-level scoring.
	Bench = workload.Bench
	// BenchRun is one completed benchmark iteration.
	BenchRun = workload.RunResult
)

// Busy returns a workload that always wants a full core.
func Busy() Workload { return workload.Busy() }

// IdleWorkload returns a workload that never runs.
func IdleWorkload() Workload { return workload.Idle() }

// NewCompress7zip builds a compress-7zip-like benchmark.
func NewCompress7zip(threads int, cyclesPerRun int64, runs int, startUs int64) (*Bench, error) {
	return workload.NewCompress7zip(threads, cyclesPerRun, runs, startUs)
}

// NewOpenSSL builds an openssl-like benchmark.
func NewOpenSSL(threads int, cyclesPerRun int64, runs int, startUs int64) (*Bench, error) {
	return workload.NewOpenSSL(threads, cyclesPerRun, runs, startUs)
}

// Controller.
type (
	// Config holds the controller tuning knobs.
	Config = core.Config
	// Controller runs the six-stage virtual-frequency control loop.
	Controller = core.Controller
	// StepReport describes one Step's degradation, churn and timings;
	// see Controller.LastReport.
	StepReport = core.StepReport
	// Fault is one recorded host failure inside a Step.
	Fault = core.Fault
	// Host is the platform interface the controller drives.
	Host = platform.Host
	// NodeInfo describes the controlled node.
	NodeInfo = platform.NodeInfo
	// VMInfo describes one hosted VM.
	VMInfo = platform.VMInfo
)

// Crash recovery: versioned checkpoints, atomic persistence, restore.
type (
	// Snapshot is a versioned, round-trippable controller checkpoint.
	Snapshot = core.Snapshot
	// RestoreReport describes what Controller.Restore adopted, cold-
	// started and dropped.
	RestoreReport = core.RestoreReport
	// FileCheckpointStore persists to a real file via write-then-rename.
	FileCheckpointStore = platform.FileStore
	// QuotaReader is the optional Host capability to read live cpu.max
	// quotas back, used for cold-start quota adoption on restore.
	QuotaReader = platform.QuotaReader
)

// ErrNoCheckpoint is returned by FileCheckpointStore.Load before any save.
var ErrNoCheckpoint = platform.ErrNoCheckpoint

// DecodeSnapshot parses and validates a checkpoint without panicking on
// malformed input.
func DecodeSnapshot(data []byte) (Snapshot, error) { return core.DecodeSnapshot(data) }

// Fault injection: wrap any Host to test controller robustness.
type (
	// FaultyHost injects failures per Host call site.
	FaultyHost = platform.FaultyHost
	// FaultPlan configures when a call site fails.
	FaultPlan = platform.FaultPlan
	// FaultSite names a Host call site.
	FaultSite = platform.FaultSite
)

// WithFaults wraps a host with a reproducible fault injector.
func WithFaults(h Host, seed int64) *FaultyHost { return platform.WithFaults(h, seed) }

// DefaultConfig returns the paper's evaluation configuration (§IV-A1).
func DefaultConfig() Config { return core.DefaultConfig() }

// NewController creates a controller on a platform host.
func NewController(h Host, cfg Config) (*Controller, error) { return core.New(h, cfg) }

// NewSimHost adapts a simulated VM manager to the controller.
func NewSimHost(mgr *Manager) Host { return platform.NewSim(mgr) }

// NewLinuxHost builds the real-Linux backend (requires cgroup v2 and a
// libvirt-style machine.slice). freqs maps VM names to their template
// virtual frequencies.
func NewLinuxHost(freqs map[string]int64) (Host, error) { return platform.NewLinux(freqs) }

// Placement.
type (
	// PlacementNode describes a node available to the placer.
	PlacementNode = placement.NodeSpec
	// PlacementVM describes a VM to place.
	PlacementVM = placement.VMSpec
	// PlacementPolicy selects constraint mode, factor and options.
	PlacementPolicy = placement.Policy
	// PlacementResult is the outcome of a placement run.
	PlacementResult = placement.Result
)

// Placement algorithm and constraint-mode constants.
const (
	FirstFit         = placement.FirstFit
	BestFit          = placement.BestFit
	WorstFit         = placement.WorstFit
	CoreCount        = placement.CoreCount
	VirtualFrequency = placement.VirtualFrequency
)

// Place runs a placement algorithm over nodes and VMs.
func Place(alg placement.Algorithm, nodes []PlacementNode, vms []PlacementVM, p PlacementPolicy) (*PlacementResult, error) {
	return placement.Place(alg, nodes, vms, p)
}

// Experiments: the paper's evaluation, regenerable programmatically.
type (
	// Experiment is a frequency-over-time experiment on one node.
	Experiment = experiments.FreqExperiment
	// ExperimentResult aggregates an experiment's outputs.
	ExperimentResult = experiments.FreqResult
	// Recorder collects named time series.
	Recorder = trace.Recorder
	// Series is one named time series.
	Series = trace.Series
)

// Paper experiment presets (see EXPERIMENTS.md for the full index).
var (
	Fig6  = experiments.Fig6
	Fig7  = experiments.Fig7
	Fig8  = experiments.Fig8
	Fig9  = experiments.Fig9
	Fig10 = experiments.Fig10
	Fig11 = experiments.Fig11
	Fig12 = experiments.Fig12
	Fig13 = experiments.Fig13
	Fig14 = experiments.Fig14
)

// ScaleExperiment shrinks an experiment (work, offsets, duration and the
// controller's time constants) by factor f in (0, 1].
func ScaleExperiment(e Experiment, f float64) Experiment { return experiments.Scale(e, f) }

// RunPlacementComparison reproduces the §IV-C placement evaluation.
func RunPlacementComparison() ([]experiments.PlacementRow, error) {
	return experiments.RunPlacementComparison()
}

// Cluster management: multi-node orchestration with frequency-aware
// admission (Eq. 7), per-node controllers, migration and energy
// accounting — the paper's §III-C/§V direction.
type (
	// Cluster manages a set of virtual-frequency-controlled nodes.
	Cluster = cluster.Cluster
	// ClusterConfig tunes admission policy and per-node controllers.
	ClusterConfig = cluster.Config
	// ClusterNode is one managed machine.
	ClusterNode = cluster.Node
	// ClusterHealth aggregates per-node degradation after a Step.
	ClusterHealth = cluster.Health
)

// NewCluster boots one simulated machine per spec under one manager.
func NewCluster(specs []MachineSpec, cfg ClusterConfig) (*Cluster, error) {
	return cluster.New(specs, cfg)
}
