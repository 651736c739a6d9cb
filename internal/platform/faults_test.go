package platform

import (
	"errors"
	"strings"
	"testing"
	"time"

	"vfreq/internal/vm"
)

func newFaultySim(t *testing.T) (*FaultyHost, *Sim) {
	t.Helper()
	s, mgr := newSim(t)
	if _, err := mgr.Provision("a", vm.Small(), nil); err != nil {
		t.Fatal(err)
	}
	return WithFaults(s, 1), s
}

// TestFaultyHostRejectsInertPlans pins Plan's validation: a plan that
// can never fire — or with out-of-range fields — is an error up front,
// not a silent no-op, and the rejected plan is not armed.
func TestFaultyHostRejectsInertPlans(t *testing.T) {
	fh, _ := newFaultySim(t)
	bad := []FaultPlan{
		{},                             // nothing armed
		{Rate: -0.1},                   // negative rate
		{Rate: 1.5},                    // rate above 1
		{Count: -3},                    // negative count
		{DelayRate: -0.5, DelayUs: 10}, // negative delay rate
		{DelayRate: 2, DelayUs: 10},    // delay rate above 1
		{DelayRate: 0.5},               // delay armed without a bound
		{DelayRate: 0.5, DelayUs: -1},  // negative delay bound
		{DelayUs: 100},                 // bound without a rate
	}
	for i, p := range bad {
		if err := fh.Plan(SiteUsage, p); err == nil {
			t.Fatalf("plan %d (%+v) accepted, want rejection", i, p)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := fh.UsageUs("a", 0); err != nil {
			t.Fatalf("rejected plan fired: %v", err)
		}
	}
	if fh.Injected(SiteUsage) != 0 || fh.Calls(SiteUsage) != 20 {
		t.Fatalf("injected/calls = %d/%d", fh.Injected(SiteUsage), fh.Calls(SiteUsage))
	}
}

func TestFaultyHostCountIsTransient(t *testing.T) {
	fh, _ := newFaultySim(t)
	fh.MustPlan(SiteUsage, FaultPlan{Count: 2})
	for i := 0; i < 2; i++ {
		if _, err := fh.UsageUs("a", 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d: err = %v, want injected", i, err)
		}
	}
	if _, err := fh.UsageUs("a", 0); err != nil {
		t.Fatalf("exhausted plan still fires: %v", err)
	}
	if fh.Injected(SiteUsage) != 2 {
		t.Fatalf("injected = %d, want 2", fh.Injected(SiteUsage))
	}
}

func TestFaultyHostPersistentUntilCleared(t *testing.T) {
	fh, _ := newFaultySim(t)
	custom := errors.New("vcpu thread died")
	fh.MustPlan(SiteSetMax, FaultPlan{Persistent: true, Err: custom})
	for i := 0; i < 5; i++ {
		if err := fh.SetMax("a", 0, 10_000, 100_000); !errors.Is(err, custom) {
			t.Fatalf("err = %v, want custom persistent error", err)
		}
	}
	fh.Clear(SiteSetMax)
	if err := fh.SetMax("a", 0, 10_000, 100_000); err != nil {
		t.Fatalf("cleared plan still fires: %v", err)
	}
}

// TestFaultyHostMatchScopesInjection: Match narrows a VM-scoped site to
// the vCPUs it accepts, and the sites without a VM operand ignore it —
// a Match that could only ever see ("", tid|core|-1) must not turn a
// persistent plan inert.
func TestFaultyHostMatchScopesInjection(t *testing.T) {
	onlyVCPU1 := func(vm string, vcpu int) bool { return vm == "a" && vcpu == 1 }
	for _, tc := range []struct {
		site FaultSite
		call func(fh *FaultyHost, operand int) error
		pass []int // operands Match spares; every call of an unscoped site fails
		fail []int
	}{
		{SiteUsage, func(fh *FaultyHost, j int) error { _, err := fh.UsageUs("a", j); return err }, []int{0}, []int{1}},
		{SiteListVMs, func(fh *FaultyHost, _ int) error { _, err := fh.ListVMs(); return err }, nil, []int{0}},
		{SiteLastCPU, func(fh *FaultyHost, tid int) error { _, err := fh.LastCPU(tid); return err }, nil, []int{0, 1}},
		{SiteCoreFreq, func(fh *FaultyHost, core int) error { _, err := fh.CoreFreqMHz(core); return err }, nil, []int{0, 1}},
	} {
		t.Run(string(tc.site), func(t *testing.T) {
			fh, _ := newFaultySim(t)
			fh.MustPlan(tc.site, FaultPlan{Persistent: true, Match: onlyVCPU1})
			for _, op := range tc.pass {
				if err := tc.call(fh, op); err != nil {
					t.Fatalf("unmatched operand %d failed: %v", op, err)
				}
			}
			for _, op := range tc.fail {
				if err := tc.call(fh, op); !errors.Is(err, ErrInjected) {
					t.Fatalf("operand %d err = %v, want injected", op, err)
				}
			}
		})
	}
}

func TestFaultyHostRateIsReproducible(t *testing.T) {
	run := func(seed int64) []bool {
		s, mgr := newSim(t)
		if _, err := mgr.Provision("a", vm.Small(), nil); err != nil {
			t.Fatal(err)
		}
		fh := WithFaults(s, seed)
		fh.MustPlan(SiteUsage, FaultPlan{Rate: 0.5})
		out := make([]bool, 40)
		for i := range out {
			_, err := fh.UsageUs("a", 0)
			out[i] = err != nil
		}
		return out
	}
	a, b := run(3), run(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("rate 0.5 fired %d/%d times", fired, len(a))
	}
}

// TestFaultyHostPassesThrough: the wrapper hands back the host it wraps.
// That every call reaches it unchanged while no plan is armed is the
// WithFaults(Sim) column of TestHostContract.
func TestFaultyHostPassesThrough(t *testing.T) {
	fh, s := newFaultySim(t)
	if fh.Inner() != s {
		t.Fatal("Inner() lost the wrapped host")
	}
	if fh.Node() != s.Node() {
		t.Fatal("Node() differs from inner host")
	}
}

func TestSiteByName(t *testing.T) {
	for _, s := range Sites {
		got, err := SiteByName(string(s))
		if err != nil || got != s {
			t.Fatalf("SiteByName(%q) = %q, %v", s, got, err)
		}
	}
	err := func() error { _, err := SiteByName("bogus"); return err }()
	if err == nil {
		t.Fatal("unknown site accepted")
	}
	// The error must name every valid site so a typo in a scenario file
	// is self-diagnosing.
	for _, s := range Sites {
		if !strings.Contains(err.Error(), string(s)) {
			t.Fatalf("error %q does not list site %q", err, s)
		}
	}
}

// TestFaultyHostLatencyInjection covers the delay path: a delay-only
// plan stalls calls without failing them, the injected durations stay
// inside [DelayUs/2, DelayUs], and the sleep happens on the calling
// goroutine (observed via the replaceable sleep hook — the decision is
// what matters, not wall time).
func TestFaultyHostLatencyInjection(t *testing.T) {
	fh, _ := newFaultySim(t)
	var slept []time.Duration
	fh.sleep = func(d time.Duration) { slept = append(slept, d) }
	fh.MustPlan(SiteUsage, FaultPlan{DelayRate: 1, DelayUs: 400})
	for i := 0; i < 10; i++ {
		if _, err := fh.UsageUs("a", 0); err != nil {
			t.Fatalf("delay-only plan failed the call: %v", err)
		}
	}
	if fh.Delayed(SiteUsage) != 10 || fh.Injected(SiteUsage) != 0 {
		t.Fatalf("delayed/injected = %d/%d, want 10/0",
			fh.Delayed(SiteUsage), fh.Injected(SiteUsage))
	}
	if len(slept) != 10 {
		t.Fatalf("slept %d times, want 10", len(slept))
	}
	for i, d := range slept {
		if d < 200*time.Microsecond || d > 400*time.Microsecond {
			t.Fatalf("delay %d = %v outside [200us, 400us]", i, d)
		}
	}
}

// TestFaultyHostLatencyIsReproducible: the same seed draws the same
// delay sequence, and delays combine independently with error firing.
func TestFaultyHostLatencyIsReproducible(t *testing.T) {
	run := func() ([]time.Duration, []bool) {
		s, mgr := newSim(t)
		if _, err := mgr.Provision("a", vm.Small(), nil); err != nil {
			t.Fatal(err)
		}
		fh := WithFaults(s, 7)
		var slept []time.Duration
		fh.sleep = func(d time.Duration) { slept = append(slept, d) }
		fh.MustPlan(SiteUsage, FaultPlan{Rate: 0.3, DelayRate: 0.5, DelayUs: 1000})
		failed := make([]bool, 60)
		for i := range failed {
			_, err := fh.UsageUs("a", 0)
			failed[i] = err != nil
		}
		return slept, failed
	}
	d1, f1 := run()
	d2, f2 := run()
	if len(d1) != len(d2) {
		t.Fatalf("same seed drew %d vs %d delays", len(d1), len(d2))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("delay %d: %v vs %v", i, d1[i], d2[i])
		}
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("failure sequence diverged at call %d", i)
		}
	}
	if len(d1) == 0 {
		t.Fatal("delay rate 0.5 never fired in 60 calls")
	}
	anyFail := false
	for _, f := range f1 {
		anyFail = anyFail || f
	}
	if !anyFail {
		t.Fatal("rate 0.3 never fired in 60 calls")
	}
}

// TestFaultyHostBatchSetMax covers the wrapper's batch capability: each
// entry is injected independently at SiteBatchSetMax, AND flows through
// the regular SetMax path, so an armed SiteSetMax plan keeps firing for
// batched writes. Entries that survive injection land on the inner host.
func TestFaultyHostBatchSetMax(t *testing.T) {
	fh, s := newFaultySim(t)
	fh.MustPlan(SiteBatchSetMax, FaultPlan{
		Persistent: true,
		Match:      func(vm string, vcpu int) bool { return vcpu == 1 },
	})
	quotas := []VCPUQuota{
		{VCPU: 0, QuotaUs: 10_000, PeriodUs: 100_000},
		{VCPU: 1, QuotaUs: 20_000, PeriodUs: 100_000},
	}
	if err := fh.BatchSetMax("a", quotas); !errors.Is(err, ErrInjected) {
		t.Fatalf("summary err = %v, want injected", err)
	}
	if quotas[0].Err != nil {
		t.Fatalf("unmatched entry failed: %v", quotas[0].Err)
	}
	if !errors.Is(quotas[1].Err, ErrInjected) {
		t.Fatalf("matched entry err = %v, want injected", quotas[1].Err)
	}
	// The surviving entry reached the inner host's cgroup file.
	if q, p, err := s.ReadMax("a", 0); err != nil || q != 10_000 || p != 100_000 {
		t.Fatalf("vcpu0 quota = %d/%d, %v", q, p, err)
	}

	// A SetMax plan must keep firing for batched writes: a batch is
	// semantically N quota writes.
	fh.ClearAll()
	fh.MustPlan(SiteSetMax, FaultPlan{Persistent: true})
	setMaxCalls := fh.Calls(SiteSetMax)
	quotas[0].Err, quotas[1].Err = nil, nil
	if err := fh.BatchSetMax("a", quotas); err == nil {
		t.Fatal("SetMax plan ignored by the batch path")
	}
	if quotas[0].Err == nil || quotas[1].Err == nil {
		t.Fatal("SetMax plan missed a batched entry")
	}
	if got := fh.Calls(SiteSetMax) - setMaxCalls; got != 2 {
		t.Fatalf("SetMax saw %d calls from the batch, want 2", got)
	}
}
