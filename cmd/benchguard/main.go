// Command benchguard compares two benchjson snapshots and fails when a
// watched benchmark regressed beyond a threshold. It is the backend of
// `make bench-guard`, which CI runs against the committed BENCH_*.json
// baseline before regenerating it, so a solver or cache regression
// breaks the build instead of silently rebasing the record.
//
// Usage:
//
//	benchguard -base BENCH_2026-08-05.json -cur /tmp/fresh.json \
//	    -bench BenchmarkFig12,BenchmarkMachineSolve,BenchmarkFleet256
//
// A benchmark missing from either snapshot fails the guard: missing from
// the current one, the suite lost coverage; missing from the baseline,
// there is nothing to compare against, and a run that merely warned
// would let its number become the next baseline unchecked. Three
// metrics are compared against the same budget: ns/op, and —
// when both snapshots carry them (-benchmem) — allocs/op and B/op, so
// the fleet's zero-alloc steady state cannot silently rot behind a
// timing that still squeaks by. A zero baseline for either memory
// metric is absolute: any current usage fails regardless of the
// percentage budget. The
// cache-counter extras are workload metrics, not timings, and are not
// guarded. When a snapshot holds several records for one benchmark (a
// -count>1 run), the guard compares the per-metric minimum across the
// runs on each side: the minimum is the noise-robust estimator of a
// benchmark's true cost, and taking it per metric rather than from the
// single fastest run also discards one-off background allocations —
// the -benchmem counters are global MemStats deltas, so a GC or
// runtime goroutine allocating mid-run can put a few stray bytes on an
// otherwise allocation-free benchmark, while a real per-op leak shows
// up in every run and survives the minimum. Baselines are
// machine-specific — compare snapshots from the same hardware (see
// DESIGN.md §9).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/analysis"
)

// record mirrors the benchjson fields the guard needs. AllocsPerOp and
// BytesPerOp are pointers because benchjson emits them only for
// -benchmem runs; a nil on either side skips that memory guard for
// that benchmark.
type record struct {
	Name        string   `json:"name"`
	NsPerOp     float64  `json:"ns_per_op"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
	BytesPerOp  *float64 `json:"bytes_per_op"`
}

func main() {
	var (
		base       = flag.String("base", "", "baseline benchjson file (committed BENCH_*.json)")
		cur        = flag.String("cur", "", "current benchjson file (fresh run)")
		benches    = flag.String("bench", "BenchmarkFig12,BenchmarkMachineSolve,BenchmarkFleet256", "comma-separated benchmarks to guard")
		maxRegress = flag.Float64("max-regress", 0.20, "maximum tolerated ns/op regression (0.20 = +20%)")
	)
	flag.Parse()
	if *base == "" || *cur == "" {
		fmt.Fprintln(os.Stderr, "benchguard: -base and -cur are required")
		os.Exit(2)
	}
	baseRecs, err := load(*base)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	curRecs, err := load(*cur)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(2)
	}
	names := strings.Split(*benches, ",")
	offenders, ok := compare(os.Stdout, baseRecs, curRecs, names, *maxRegress)
	if !ok {
		// Repeat the offending rows on stderr: CI surfaces the log tail,
		// and the full table may have scrolled past by then.
		fmt.Fprintf(os.Stderr, "benchguard: FAIL — %d guarded benchmark(s) out of budget:\n", len(offenders))
		for _, f := range offenders {
			fmt.Fprintf(os.Stderr, "benchguard:   %s\n", f)
		}
		os.Exit(1)
	}
}

func load(path string) (map[string]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) (map[string]record, error) {
	var recs []record
	if err := json.NewDecoder(r).Decode(&recs); err != nil {
		return nil, fmt.Errorf("decoding snapshot: %w", err)
	}
	byName := make(map[string]record, len(recs))
	for _, rec := range recs {
		prev, ok := byName[rec.Name]
		if !ok {
			byName[rec.Name] = rec
			continue
		}
		// Per-metric minimum of repeated runs (see the package comment).
		if rec.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = rec.NsPerOp
		}
		prev.AllocsPerOp = minMetric(prev.AllocsPerOp, rec.AllocsPerOp)
		prev.BytesPerOp = minMetric(prev.BytesPerOp, rec.BytesPerOp)
		byName[rec.Name] = prev
	}
	return byName, nil
}

// minMetric returns the smaller of two optional metrics, preferring
// any present value over nil (a -benchmem run beats one without).
func minMetric(a, b *float64) *float64 {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case *b < *a:
		return b
	default:
		return a
	}
}

// finding wraps one failed guard into the shared lint Finding schema
// (internal/analysis): File carries the benchmark name — there is no
// source position — so the stderr summary renders through the same
// String() as copartlint findings and the two failure modes read alike
// in a CI log tail.
func finding(name, format string, argv ...any) analysis.Finding {
	return analysis.Finding{
		File:     name,
		Analyzer: "benchguard",
		Message:  fmt.Sprintf(format, argv...),
	}
}

// compare prints a benchstat-style delta line per watched benchmark and
// reports whether every one is present and within the regression budget.
// The returned offenders hold one Finding per failing benchmark, for
// the caller to repeat wherever failures are read (CI tails stderr).
func compare(w io.Writer, base, cur map[string]record, names []string, maxRegress float64) (offenders []analysis.Finding, ok bool) {
	ok = true
	fmt.Fprintf(w, "%-28s %14s %14s %9s\n", "benchmark", "base ns/op", "cur ns/op", "delta")
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		c, haveCur := cur[name]
		if !haveCur {
			fmt.Fprintf(w, "%-28s %14s %14s %9s  FAIL: missing from current run\n", name, "-", "-", "-")
			offenders = append(offenders, finding(name, "missing from current run"))
			ok = false
			continue
		}
		b, haveBase := base[name]
		if !haveBase {
			fmt.Fprintf(w, "%-28s %14s %14.0f %9s  FAIL: missing from baseline\n", name, "-", c.NsPerOp, "-")
			offenders = append(offenders, finding(name, "missing from baseline"))
			ok = false
			continue
		}
		delta := 0.0
		if b.NsPerOp > 0 {
			delta = (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		}
		verdict := "ok"
		if delta > maxRegress {
			verdict = fmt.Sprintf("FAIL: regressed past +%.0f%%", maxRegress*100)
			offenders = append(offenders, finding(name, "%.0f ns/op → %.0f ns/op (%+.1f%%, budget +%.0f%%)",
				b.NsPerOp, c.NsPerOp, delta*100, maxRegress*100))
			ok = false
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %+8.1f%%  %s\n", name, b.NsPerOp, c.NsPerOp, delta*100, verdict)

		// Memory guards: same budget, same table, rows labeled with the
		// unit. Each is skipped (with a warning when the baseline had the
		// metric) whenever either snapshot lacks -benchmem data.
		if msg := guardMem(w, name, "allocs", "allocs/op", "zero-alloc", b.AllocsPerOp, c.AllocsPerOp, maxRegress); msg != "" {
			offenders = append(offenders, finding(name, "%s", msg))
			ok = false
		}
		if msg := guardMem(w, name, "bytes", "B/op", "zero-byte", b.BytesPerOp, c.BytesPerOp, maxRegress); msg != "" {
			offenders = append(offenders, finding(name, "%s", msg))
			ok = false
		}
	}
	return offenders, ok
}

// guardMem holds one -benchmem metric (allocs/op or B/op) to the same
// percentage budget as ns/op and prints its table row. A zero baseline
// is absolute: the fleet's allocation-free steady state is an invariant,
// so any current usage fails no matter how small the absolute delta —
// a percentage budget over zero would otherwise excuse everything. A
// nil metric on either side only warns (when the baseline carried it),
// keeping coverage loss visible without failing timing-only runs.
// Returns a non-empty offender message on failure; the caller wraps it
// into a Finding carrying the benchmark name.
func guardMem(w io.Writer, name, row, unit, zero string, bp, cp *float64, maxRegress float64) string {
	if bp == nil || cp == nil {
		if bp != nil {
			fmt.Fprintf(w, "%-28s %14.0f %14s %9s  warn: %s missing from current run\n",
				name+" "+row, *bp, "-", "-", unit)
		}
		return ""
	}
	bv, cv := *bp, *cp
	delta := 0.0
	if bv > 0 {
		delta = (cv - bv) / bv
	}
	verdict, offender := "ok", ""
	switch {
	case bv == 0 && cv > 0:
		verdict = fmt.Sprintf("FAIL: %s baseline now nonzero", zero)
		offender = fmt.Sprintf("0 %s → %.0f %s (%s baseline)", unit, cv, unit, zero)
	case delta > maxRegress:
		verdict = fmt.Sprintf("FAIL: regressed past +%.0f%%", maxRegress*100)
		offender = fmt.Sprintf("%.0f %s → %.0f %s (%+.1f%%, budget +%.0f%%)",
			bv, unit, cv, unit, delta*100, maxRegress*100)
	}
	fmt.Fprintf(w, "%-28s %14.0f %14.0f %+8.1f%%  %s\n", name+" "+row, bv, cv, delta*100, verdict)
	return offender
}
