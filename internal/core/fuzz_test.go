package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"slices"
	"testing"

	"vfreq/internal/platform"
)

// FuzzDecodeSnapshot feeds arbitrary bytes through the checkpoint
// decoder. The property under test is the crash-safety contract: a
// corrupted checkpoint must never panic the recovering controller, and
// anything the decoder accepts must re-encode to an equally valid
// checkpoint and restore — onto a host of the checkpoint's shape carrying
// the same VMs — into a controller that checkpoints and steps.
func FuzzDecodeSnapshot(f *testing.F) {
	// Seed with a real checkpoint from a live controller plus the classic
	// malformed shapes.
	h := newFakeHost()
	h.AddVM("web", 2, 500)
	h.AddVM("batch", 4, 1200)
	if c, err := New(h, DefaultConfig()); err == nil {
		for i := 0; i < 3; i++ {
			h.Consume("web", 0, 200_000)
			h.Consume("batch", 1, 600_000)
			if err := c.Step(); err != nil {
				break
			}
		}
		if raw, err := c.Snapshot().JSON(); err == nil {
			f.Add(raw)
			f.Add(raw[:len(raw)/2]) // truncated mid-object
		}
	}
	f.Add([]byte(``))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"version":2,"step":1}`)) // pre-breaker version: rejected
	f.Add([]byte(`{"version":4,"step":-1}`))
	f.Add([]byte(`{"version":3,"cores":4,"max_freq_mhz":2400,"period_us":1000000,"market_us":7,` +
		`"vms":[{"name":"a","freq_mhz":500,"guarantee_us":250000,"vcpus":[{"index":0}]}]}`)) // v3 keys: ignored
	f.Add([]byte(`{"version":4,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","vcpus":[{"index":7}]}]}`))
	f.Add([]byte(`{"version":4,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","breaker":1}]}`)) // open with no window left
	f.Add([]byte(`{"version":4,"cores":4,"max_freq_mhz":2400,"period_us":1000000,` +
		`"vms":[{"name":"a","breaker":7}]}`)) // unknown phase

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSnapshot(data) // must not panic, whatever the input
		if err != nil {
			return
		}
		raw, err := s.JSON()
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(raw); err != nil {
			t.Fatalf("re-encoded valid checkpoint rejected: %v", err)
		}

		h := platform.NewScripted(platform.NodeInfo{Name: s.Node, Cores: s.Cores, MaxFreqMHz: s.MaxFreqMHz})
		for _, vm := range s.VMs {
			h.AddVM(vm.Name, len(vm.VCPUs), s.MaxFreqMHz)
		}
		cfg := DefaultConfig()
		cfg.PeriodUs = s.PeriodUs
		c, err := New(h, cfg)
		if err != nil {
			return // a period the rest of the default tuning does not fit
		}
		if _, err := c.Restore(s); err != nil { // must not panic
			t.Fatalf("accepted checkpoint does not restore onto its own shape: %v", err)
		}
		raw, err = c.Snapshot().JSON()
		if err != nil {
			t.Fatalf("restored controller does not re-encode: %v", err)
		}
		if _, err := DecodeSnapshot(raw); err != nil {
			t.Fatalf("restored controller checkpoints invalid state: %v", err)
		}
		if err := c.Step(); err != nil {
			t.Fatalf("controller cannot step after restore: %v", err)
		}
	})
}

// fuzzByteStream doles bytes out of a fuzz payload, padding with zeros
// once the payload runs dry, so any input decodes to a valid market.
type fuzzByteStream struct {
	data []byte
	pos  int
}

func (s *fuzzByteStream) byte() byte {
	if s.pos >= len(s.data) {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return b
}

func (s *fuzzByteStream) u16() uint16 {
	return binary.LittleEndian.Uint16([]byte{s.byte(), s.byte()})
}

// FuzzAuction drives arbitrary buyer populations — estimates, caps and
// wallets — through the auction. The property under test is the
// conservation contract of Algorithm 1: it may not panic, mint, leak or
// double-sell cycles, overdraw a wallet, or cap a vCPU beyond its
// estimate or below its pre-auction (Eq. 5) base. Every cap, wallet and
// the leftover must also equal the oracle's stage 4 (oracleAuction).
func FuzzAuction(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 200, 16, 39, 2, 1, 0, 0, 4, 4})
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 128, 7, 6, 5, 4, 3, 2, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		s := &fuzzByteStream{data: data}
		h := platform.NewScripted(platform.NodeInfo{Name: "fake", Cores: 16, MaxFreqMHz: 2400})
		nVMs := int(s.byte())%6 + 1
		for i := 0; i < nVMs; i++ {
			h.AddVM(fmt.Sprintf("vm%d", i), int(s.byte())%4+1, 1200)
		}
		c, err := New(h, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Step(); err != nil {
			t.Fatal(err)
		}

		var wallets []int64
		var buyers []refBuyer // the pre-auction state, as the oracle takes it
		for i, vs := range c.VMs() {
			vs.CreditUs = int64(s.u16()) * 32 // 0 .. ~2.1M
			wallets = append(wallets, vs.CreditUs)
			for _, v := range vs.VCPUs {
				v.CapUs = int64(s.u16()) * 8 // 0 .. ~520k
				v.EstUs = v.CapUs + int64(s.u16())*8
				buyers = append(buyers, refBuyer{vm: i, cap: v.CapUs, est: v.EstUs})
			}
		}
		market := int64(s.u16()) * 32
		var caps0, credits0 int64
		for _, w := range wallets {
			credits0 += w
		}
		for _, b := range buyers {
			caps0 += b.cap
		}
		base := slices.Clone(buyers)

		left := c.auction(market)
		if want := oracleAuction(wallets, buyers, market, c.cfg.WindowUs); left != want || left < 0 || left > market {
			t.Fatalf("auction left %d of market %d, oracle %d", left, market, want)
		}
		var caps, credits int64
		k := 0
		for i, vs := range c.VMs() {
			if vs.CreditUs != wallets[i] || vs.CreditUs < 0 {
				t.Fatalf("%s wallet %d, oracle %d", vs.Info.Name, vs.CreditUs, wallets[i])
			}
			credits += vs.CreditUs
			for _, v := range vs.VCPUs {
				if v.CapUs != buyers[k].cap || v.CapUs > v.EstUs || v.CapUs < base[k].cap {
					t.Fatalf("%s/vcpu%d cap %d (estimate %d, base %d), oracle %d",
						v.VM, v.Index, v.CapUs, v.EstUs, base[k].cap, buyers[k].cap)
				}
				caps += v.CapUs
				k++
			}
		}
		if sold := market - left; caps-caps0 != sold || credits0-credits != sold {
			t.Fatalf("Δcaps %d and wallet debits %d, sold %d", caps-caps0, credits0-credits, sold)
		}
	})
}

// FuzzAdoptVM feeds arbitrary JSON through the migration adoption path
// on a live controller. The property is the same crash-safety contract
// DecodeSnapshot honours: a malformed snapshot must never panic or
// corrupt the target — on error the controller is unchanged, and on
// success the adopted VM re-exports as a snapshot the validator accepts.
func FuzzAdoptVM(f *testing.F) {
	h := newFakeHost()
	h.AddVM("web", 2, 1200)
	if c, err := New(h, DefaultConfig()); err == nil {
		for i := 0; i < 3; i++ {
			h.Consume("web", 0, 200_000)
			h.Consume("web", 1, 150_000)
			if err := c.Step(); err != nil {
				break
			}
		}
		if snap, err := c.ExportVM("web"); err == nil {
			if raw, err := json.Marshal(snap); err == nil {
				f.Add(raw)
			}
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"web"}`))
	f.Add([]byte(`{"name":"web","credit_us":-5}`))
	f.Add([]byte(`{"name":"web","breaker":1}`)) // open, no window
	f.Add([]byte(`{"name":"web","breaker":2,"breaker_fault_streak":-1}`))
	f.Add([]byte(`{"name":"web","vcpus":[{"index":3}]}`))
	f.Add([]byte(`{"name":"ghost"}`))                                  // not provisioned
	f.Add([]byte(`{"name":"web","freq_mhz":99999,"guarantee_us":-1}`)) // v3 keys: ignored
	f.Add([]byte(`{"name":"web","vcpus":[{"index":0,"hist":[-1]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var snap VMSnapshot
		// Partial decodes still stress the validator: adopt whatever the
		// decoder managed to fill in before erroring.
		_ = json.Unmarshal(data, &snap)

		tgt := newFakeHost()
		tgt.AddVM("web", 2, 1200)
		ct, err := New(tgt, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := ct.AdoptVM(snap); err != nil { // must not panic
			if ct.VM(snap.Name) != nil {
				t.Fatalf("failed adoption left %q tracked", snap.Name)
			}
			return
		}
		re, err := ct.ExportVM(snap.Name)
		if err != nil {
			t.Fatalf("adopted VM does not re-export: %v", err)
		}
		if err := validateVMSnapshot(re); err != nil {
			t.Fatalf("adopted VM re-exports an invalid snapshot: %v", err)
		}
		if err := ct.Step(); err != nil {
			t.Fatalf("controller cannot step after adoption: %v", err)
		}
	})
}
