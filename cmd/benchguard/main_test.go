package main

import (
	"strings"
	"testing"
)

func mustParse(t *testing.T, doc string) map[string]record {
	t.Helper()
	recs, err := parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

const baseDoc = `[
  {"name": "BenchmarkFig12", "procs": 1, "iterations": 2, "ns_per_op": 100000000},
  {"name": "BenchmarkMachineSolve", "procs": 1, "iterations": 1000, "ns_per_op": 7500}
]`

func TestCompareWithinBudget(t *testing.T) {
	base := mustParse(t, baseDoc)
	cur := mustParse(t, `[
      {"name": "BenchmarkFig12", "ns_per_op": 110000000},
      {"name": "BenchmarkMachineSolve", "ns_per_op": 7400}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFig12", "BenchmarkMachineSolve"}, 0.20)
	if !ok {
		t.Fatalf("+10%% flagged as a regression with a 20%% budget:\n%s", out.String())
	}
	if len(offenders) != 0 {
		t.Fatalf("passing comparison produced offenders: %v", offenders)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := mustParse(t, baseDoc)
	cur := mustParse(t, `[
      {"name": "BenchmarkFig12", "ns_per_op": 130000000},
      {"name": "BenchmarkMachineSolve", "ns_per_op": 7400}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFig12", "BenchmarkMachineSolve"}, 0.20)
	if ok {
		t.Fatalf("+30%% passed a 20%% budget:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "FAIL") {
		t.Fatalf("no FAIL marker in output:\n%s", out.String())
	}
	// The offender summary names only the regressed benchmark, with both
	// timings and the budget — what a CI log tail needs to show. It is
	// an analysis.Finding so bench and lint failures share one format.
	if len(offenders) != 1 {
		t.Fatalf("offenders = %v, want exactly one", offenders)
	}
	if offenders[0].Analyzer != "benchguard" || offenders[0].File != "BenchmarkFig12" {
		t.Errorf("offender = %+v, want analyzer benchguard on BenchmarkFig12", offenders[0])
	}
	line := offenders[0].String()
	for _, frag := range []string{"BenchmarkFig12", "[benchguard]", "100000000", "130000000", "+30.0%", "budget +20%"} {
		if !strings.Contains(line, frag) {
			t.Errorf("offender line missing %q: %s", frag, line)
		}
	}
}

func TestCompareMissingFromCurrentFails(t *testing.T) {
	base := mustParse(t, baseDoc)
	cur := mustParse(t, `[{"name": "BenchmarkMachineSolve", "ns_per_op": 7400}]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFig12", "BenchmarkMachineSolve"}, 0.20)
	if ok {
		t.Fatal("benchmark missing from the current run passed the guard")
	}
	if len(offenders) != 1 || !strings.Contains(offenders[0].String(), "missing from current run") {
		t.Fatalf("offenders = %v, want one missing-from-current line", offenders)
	}
}

// TestCompareMissingFromBaselineFails: a guarded benchmark the baseline
// lacks has nothing to be compared against, so it fails rather than
// letting its first number slip into the next baseline unchecked.
func TestCompareMissingFromBaselineFails(t *testing.T) {
	base := mustParse(t, baseDoc)
	cur := mustParse(t, `[
      {"name": "BenchmarkFig12", "ns_per_op": 100000000},
      {"name": "BenchmarkMachineSolve", "ns_per_op": 7400},
      {"name": "BenchmarkFleet256", "ns_per_op": 30000000}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFig12", "BenchmarkMachineSolve", "BenchmarkFleet256"}, 0.20)
	if ok {
		t.Fatalf("benchmark missing from the baseline passed the guard:\n%s", out.String())
	}
	if len(offenders) != 1 || offenders[0].File != "BenchmarkFleet256" ||
		!strings.Contains(offenders[0].String(), "missing from baseline") {
		t.Fatalf("offenders = %v, want one missing-from-baseline line for BenchmarkFleet256", offenders)
	}
	if !strings.Contains(out.String(), "FAIL: missing from baseline") {
		t.Fatalf("no FAIL marker in output:\n%s", out.String())
	}
}

func TestParseKeepsFastestOfRepeatedRuns(t *testing.T) {
	recs := mustParse(t, `[
      {"name": "BenchmarkFig12", "ns_per_op": 120000000},
      {"name": "BenchmarkFig12", "ns_per_op": 90000000},
      {"name": "BenchmarkFig12", "ns_per_op": 105000000}
    ]`)
	if got := recs["BenchmarkFig12"].NsPerOp; got != 90000000 {
		t.Fatalf("parse kept %v ns/op, want the fastest run (9e7)", got)
	}
}

func TestParseTakesPerMetricMinimum(t *testing.T) {
	// The fastest-ns run carries a stray background allocation (the
	// -benchmem counters are global, so another goroutine's GC-time
	// allocation can land on an allocation-free benchmark); a slower
	// run shows the true zero. Each metric takes its own minimum, so
	// the stray bytes must not survive.
	recs := mustParse(t, `[
      {"name": "BenchmarkFleetChurn", "ns_per_op": 14000000, "allocs_per_op": 0, "bytes_per_op": 24},
      {"name": "BenchmarkFleetChurn", "ns_per_op": 16000000, "allocs_per_op": 0, "bytes_per_op": 0}
    ]`)
	r := recs["BenchmarkFleetChurn"]
	if r.NsPerOp != 14000000 {
		t.Fatalf("ns/op = %v, want the fastest run (1.4e7)", r.NsPerOp)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 0 {
		t.Fatalf("bytes_per_op = %v, want the per-metric minimum 0", r.BytesPerOp)
	}
	// A present metric beats an absent one, whichever order they appear.
	recs = mustParse(t, `[
      {"name": "BenchmarkFig12", "ns_per_op": 100000000},
      {"name": "BenchmarkFig12", "ns_per_op": 110000000, "allocs_per_op": 7}
    ]`)
	r = recs["BenchmarkFig12"]
	if r.AllocsPerOp == nil || *r.AllocsPerOp != 7 {
		t.Fatalf("allocs_per_op = %v, want 7 adopted from the -benchmem run", r.AllocsPerOp)
	}
}

func TestCompareStrayBytesOnZeroBaselinePasses(t *testing.T) {
	// End to end: a zero-byte baseline and a current -count 2 run where
	// only one count caught background bytes — the guard must pass,
	// while a leak present in every run (the next compare) must fail.
	base := mustParse(t, `[
      {"name": "BenchmarkFleetChurn", "ns_per_op": 14000000, "allocs_per_op": 0, "bytes_per_op": 0}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleetChurn", "ns_per_op": 13000000, "allocs_per_op": 0, "bytes_per_op": 24},
      {"name": "BenchmarkFleetChurn", "ns_per_op": 15000000, "allocs_per_op": 0, "bytes_per_op": 0}
    ]`)
	var out strings.Builder
	if offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleetChurn"}, 0.20); !ok {
		t.Fatalf("one-run stray bytes failed the zero-byte guard: %v\n%s", offenders, out.String())
	}
	leak := mustParse(t, `[
      {"name": "BenchmarkFleetChurn", "ns_per_op": 13000000, "allocs_per_op": 0, "bytes_per_op": 24},
      {"name": "BenchmarkFleetChurn", "ns_per_op": 15000000, "allocs_per_op": 0, "bytes_per_op": 24}
    ]`)
	out.Reset()
	if _, ok := compare(&out, base, leak, []string{"BenchmarkFleetChurn"}, 0.20); ok {
		t.Fatalf("a leak present in every run passed the zero-byte guard:\n%s", out.String())
	}
}

func TestCompareAllocsRegressionFails(t *testing.T) {
	base := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "allocs_per_op": 1000}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "allocs_per_op": 1300}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleet256"}, 0.20)
	if ok {
		t.Fatalf("+30%% allocs/op passed a 20%% budget:\n%s", out.String())
	}
	if len(offenders) != 1 {
		t.Fatalf("offenders = %v, want exactly one", offenders)
	}
	for _, frag := range []string{"BenchmarkFleet256", "1000", "1300", "+30.0%", "budget +20%"} {
		if !strings.Contains(offenders[0].String(), frag) {
			t.Errorf("offender line missing %q: %s", frag, offenders[0])
		}
	}
}

func TestCompareZeroAllocBaselineIsAbsolute(t *testing.T) {
	base := mustParse(t, `[
      {"name": "BenchmarkManagerPeriod", "ns_per_op": 40000, "allocs_per_op": 0}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkManagerPeriod", "ns_per_op": 40000, "allocs_per_op": 1}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkManagerPeriod"}, 0.20)
	if ok {
		t.Fatalf("allocation on a zero-alloc baseline passed the guard:\n%s", out.String())
	}
	if len(offenders) != 1 || !strings.Contains(offenders[0].String(), "zero-alloc baseline") {
		t.Fatalf("offenders = %v, want one zero-alloc-baseline line", offenders)
	}
}

func TestCompareAllocsWithinBudgetPasses(t *testing.T) {
	base := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "allocs_per_op": 100}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5100000, "allocs_per_op": 110}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleet256"}, 0.20)
	if !ok {
		t.Fatalf("+10%% allocs/op flagged with a 20%% budget:\n%s\nofenders: %v", out.String(), offenders)
	}
}

func TestCompareAllocsSkippedWhenAbsent(t *testing.T) {
	// Baseline has the metric, current run was not -benchmem: the guard
	// warns but does not fail — alloc coverage loss is visible, timing
	// coverage is still enforced.
	base := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "allocs_per_op": 8}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleet256"}, 0.20)
	if !ok {
		t.Fatalf("missing -benchmem data failed the guard: %v\n%s", offenders, out.String())
	}
	if !strings.Contains(out.String(), "allocs/op missing from current run") {
		t.Fatalf("no allocs-missing warning in output:\n%s", out.String())
	}
}

func TestCompareBytesRegressionFails(t *testing.T) {
	base := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "bytes_per_op": 2000}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "bytes_per_op": 2600}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleet256"}, 0.20)
	if ok {
		t.Fatalf("+30%% B/op passed a 20%% budget:\n%s", out.String())
	}
	if len(offenders) != 1 {
		t.Fatalf("offenders = %v, want exactly one", offenders)
	}
	for _, frag := range []string{"BenchmarkFleet256", "2000", "2600", "B/op", "+30.0%", "budget +20%"} {
		if !strings.Contains(offenders[0].String(), frag) {
			t.Errorf("offender line missing %q: %s", frag, offenders[0])
		}
	}
}

func TestCompareZeroByteBaselineIsAbsolute(t *testing.T) {
	// The fleet steady state is zero B/op as well as zero allocs/op; a
	// single leaked byte must fail even though any percentage budget
	// over a zero base would pass it.
	base := mustParse(t, `[
      {"name": "BenchmarkFleet16384", "ns_per_op": 200000000, "bytes_per_op": 0}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleet16384", "ns_per_op": 200000000, "bytes_per_op": 64}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleet16384"}, 0.20)
	if ok {
		t.Fatalf("bytes on a zero-byte baseline passed the guard:\n%s", out.String())
	}
	if len(offenders) != 1 || !strings.Contains(offenders[0].String(), "zero-byte baseline") {
		t.Fatalf("offenders = %v, want one zero-byte-baseline line", offenders)
	}
}

func TestCompareBytesWithinBudgetPasses(t *testing.T) {
	base := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "bytes_per_op": 1000}
    ]`)
	cur := mustParse(t, `[
      {"name": "BenchmarkFleet256", "ns_per_op": 5000000, "bytes_per_op": 1100}
    ]`)
	var out strings.Builder
	offenders, ok := compare(&out, base, cur, []string{"BenchmarkFleet256"}, 0.20)
	if !ok {
		t.Fatalf("+10%% B/op flagged with a 20%% budget:\n%s\noffenders: %v", out.String(), offenders)
	}
}
