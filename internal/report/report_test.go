package report

import (
	"strings"
	"testing"
)

func TestRunAllChecksPass(t *testing.T) {
	rep, err := Run(Options{Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Checks) < 10 {
		t.Fatalf("only %d checks ran", len(rep.Checks))
	}
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("%s FAILED: claim %q, measured %q", c.Artefact, c.Claim, c.Measured)
		}
	}
	if rep.Passed() != len(rep.Checks) {
		t.Fatalf("%d/%d checks passed", rep.Passed(), len(rep.Checks))
	}
}

// Two runs render the same bytes. The fig6–fig9 checks each measure two
// series, so a report that took their order from a map would differ
// here in all but one of sixteen runs.
func TestRowsDeterministic(t *testing.T) {
	var md [2]string
	for i := range md {
		rep, err := Run(Options{Scale: 0.02, SkipEfficiency: true})
		if err != nil {
			t.Fatal(err)
		}
		md[i] = rep.Markdown()
	}
	if md[0] != md[1] {
		t.Fatalf("two runs differ:\n%s\n%s", md[0], md[1])
	}
}

func TestMarkdownRendering(t *testing.T) {
	rep := &Report{Checks: []Check{
		{Artefact: "fig7", Claim: "small ≈500", Measured: "499 MHz", Pass: true},
		{Artefact: "figX", Claim: "impossible", Measured: "n/a", Pass: false},
	}}
	md := rep.Markdown()
	if !strings.Contains(md, "1/2 checks passed") {
		t.Fatalf("summary wrong:\n%s", md)
	}
	if !strings.Contains(md, "| fig7 | small ≈500 | 499 MHz | ✔ |") {
		t.Fatalf("pass row wrong:\n%s", md)
	}
	if !strings.Contains(md, "✘") {
		t.Fatalf("fail mark missing:\n%s", md)
	}
}

func TestSkipEfficiency(t *testing.T) {
	rep, err := Run(Options{Scale: 0.02, SkipEfficiency: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Checks {
		if c.Artefact == "fig10" {
			t.Fatal("efficiency check ran despite SkipEfficiency")
		}
	}
}
