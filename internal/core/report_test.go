package core

import (
	"errors"
	"testing"
)

// TestStepReportStringGolden pins the one-line rendering of StepReport.
// Every summary field must be visible — BreakerTrips and Recovered were
// once silently dropped, so these are golden strings, not Contains checks.
func TestStepReportStringGolden(t *testing.T) {
	cases := []struct {
		name string
		rep  StepReport
		want string
	}{
		{
			name: "healthy",
			rep: StepReport{
				Step: 7, VMs: 3, VCPUs: 6,
			},
			want: "step 7: 3 VMs, 6/6 vCPUs healthy, 0 degraded, 0 faults (+0 added, -0 removed, ~0 reconfigured)",
		},
		{
			name: "churn",
			rep: StepReport{
				Step: 2, VMs: 4, VCPUs: 8,
				Added: []string{"a"}, Removed: []string{"b", "c"}, Reconfigured: []string{"d"},
			},
			want: "step 2: 4 VMs, 8/8 vCPUs healthy, 0 degraded, 0 faults (+1 added, -2 removed, ~1 reconfigured)",
		},
		{
			name: "retries and recovery",
			rep: StepReport{
				Step: 9, VMs: 2, VCPUs: 4,
				Retries: 3, Recovered: 2,
			},
			want: "step 9: 2 VMs, 4/4 vCPUs healthy, 0 degraded, 0 faults (+0 added, -0 removed, ~0 reconfigured) [3 retries] [2 vCPUs recovered]",
		},
		{
			name: "breaker trip without open VMs",
			rep: StepReport{
				Step: 5, VMs: 2, VCPUs: 4, DegradedVCPUs: 2,
				BreakerTrips: 1,
				Faults:       []Fault{{VM: "a", VCPU: -1, Stage: "breaker", Op: "open", Err: errors.New("tripped")}},
			},
			want: "step 5: 2 VMs, 2/4 vCPUs healthy, 2 degraded, 1 faults (+0 added, -0 removed, ~0 reconfigured) [breakers: 0 open, 0 half-open, 1 tripped]",
		},
		{
			name: "quarantined",
			rep: StepReport{
				Step: 6, VMs: 2, VCPUs: 4, DegradedVCPUs: 2,
				OpenVMs: 1, HalfOpenVMs: 1, BreakerTrips: 2,
			},
			want: "step 6: 2 VMs, 2/4 vCPUs healthy, 2 degraded, 0 faults (+0 added, -0 removed, ~0 reconfigured) [breakers: 1 open, 1 half-open, 2 tripped]",
		},
		{
			name: "panicked overrun",
			rep: StepReport{
				Step: 11, VMs: 1, VCPUs: 2, DegradedVCPUs: 2,
				Panicked: true, Overrun: true, OverrunStage: "monitor", SkippedPeriods: 3,
				FaultsDropped: 70,
			},
			want: "step 11: 1 VMs, 0/2 vCPUs healthy, 2 degraded, 70 faults (+0 added, -0 removed, ~0 reconfigured) [panicked] [overrun after monitor, 3 periods skipped]",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.rep.String(); got != tc.want {
				t.Errorf("String() =\n  %q\nwant\n  %q", got, tc.want)
			}
		})
	}
}
