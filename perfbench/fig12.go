package main

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/parallel"
	"repro/internal/policies"
	"repro/internal/workloads"
)

// fig12Headline is EXPERIMENTS.md's headline at seed 1: CoPart's
// fairness improvement over each baseline, in percent to one decimal.
var fig12Headline = map[string]string{"EQ": "78.0", "CAT-only": "28.9", "MBA-only": "66.5"}

// coldFig12 regenerates Figure 12 from an empty process-wide solve
// cache, as every "evaluate -fig 12" process does, and from a freshly
// collected heap, so that where the collector happens to run does not
// move the peak resident set from one regeneration to the next.
func (r *run) coldFig12(cfg machine.Config) (experiments.Fig12Result, time.Duration, error) {
	machine.ResetSharedSolveCache()
	runtime.GC()
	r.timeRef()
	start := time.Now()
	res, _, err := experiments.Figure12(cfg, r.seed)
	return res, time.Since(start), err
}

// withWorkers runs fn with the parallel pool bounded to n workers.
func withWorkers(n int, fn func()) {
	parallel.SetWorkers(n)
	defer parallel.SetWorkers(0)
	fn()
}

// checkFig12 compares a regeneration with the reference: bit-identical
// at any seed, and at seed 1 the reference itself must reproduce the
// EXPERIMENTS.md headline.
func checkFig12(seed int64, ref *experiments.Fig12Result, res experiments.Fig12Result, err error, what string) error {
	if err != nil {
		return fmt.Errorf("%s regeneration: %w", what, err)
	}
	if ref.Policies == nil {
		*ref = res
		if seed != 1 {
			return nil
		}
		idx := map[string]int{}
		for i, p := range res.Policies {
			idx[p] = i
		}
		cp := res.GeoMean[idx["CoPart"]]
		for base, want := range fig12Headline {
			b := res.GeoMean[idx[base]]
			if got := fmt.Sprintf("%.1f", (b-cp)/b*100); got != want {
				return fmt.Errorf("CoPart improvement over %s is %s%%, EXPERIMENTS.md says %s%%", base, got, want)
			}
		}
		return nil
	}
	if !reflect.DeepEqual(*ref, res) {
		return fmt.Errorf("%s regeneration differs from the first cold one", what)
	}
	return nil
}

// runFig12 measures cold Figure 12 regenerations for the run's seconds,
// then checks a warm and a one-worker regeneration against them.
func runFig12(r *run) error {
	cfg := machine.DefaultConfig()
	if err := r.calibrate(cfg); err != nil {
		return err
	}
	if err := r.ready(); err != nil {
		return err
	}
	window := r.seconds
	if r.tr != nil {
		window /= 2 // the other half is traced
	}
	var ref experiments.Fig12Result
	var secs []float64
	for deadline := time.Now().Add(window); len(secs) == 0 || time.Now().Before(deadline); {
		res, d, err := r.coldFig12(cfg)
		secs = append(secs, d.Seconds())
		r.op(checkFig12(r.seed, &ref, res, err, "cold"))
	}
	if ref.Policies == nil {
		return fmt.Errorf("no successful regeneration")
	}
	res, _, err := experiments.Figure12(cfg, r.seed) // the cache is warm from the last cold run
	r.op(checkFig12(r.seed, &ref, res, err, "warm"))
	var oneWorker time.Duration
	withWorkers(1, func() {
		res, oneWorker, err = r.coldFig12(cfg)
	})
	r.op(checkFig12(r.seed, &ref, res, err, "one-worker"))

	work, tail := median(secs), slowestQuarter(secs)
	report("fig12_s", work, "s", fmt.Sprintf("median cold regeneration (n=%d)", len(secs)))
	report("fig12_tail_s", tail, "s", "mean of the slowest quarter of the cold regenerations")
	report("fig12_ref_s", r.atRef(work), "s", refNote)
	r.metrics["work_s"] = r.atRef(work)
	r.metrics["tail_us"] = tail * 1e6
	if r.tr != nil {
		return fig12Traced(r, cfg, ref, work, oneWorker)
	}
	return nil
}

// fig12Traced regenerates Figure 12 cell by cell — the same mixes,
// policies and worker pool as experiments.Figure12 — with a span around
// every policy run, and derives the policies, machine and parallel
// layer metrics. untraced is the untraced median regeneration time.
func fig12Traced(r *run, cfg machine.Config, ref experiments.Fig12Result, untraced float64, oneWorker time.Duration) error {
	mixes := workloads.MixKinds()
	models := make([][]machine.AppModel, len(mixes))
	for i, k := range mixes {
		m, err := workloads.Mix(cfg, k, 4)
		if err != nil {
			return err
		}
		models[i] = m
	}
	pols := experiments.PolicySet(r.seed)
	var traced, hits, misses, evictions []float64
	for deadline := time.Now().Add(r.seconds / 2); len(traced) == 0 || time.Now().Before(deadline); {
		machine.ResetSharedSolveCache()
		root := r.tr.begin("fig12.regeneration", noSpan)
		start := time.Now()
		raw := make([][]float64, len(pols))
		for p := range raw {
			raw[p] = make([]float64, len(mixes))
		}
		err := parallel.ForEach(len(mixes)*len(pols), func(k int) error {
			mi, pi := k/len(pols), k%len(pols)
			id := r.tr.begin("policies."+pols[pi].Name()+".Run", root)
			out, err := pols[pi].Run(cfg, models[mi])
			r.tr.end(id)
			raw[pi][mi] = out.Unfairness
			return err
		})
		traced = append(traced, time.Since(start).Seconds())
		r.tr.end(root)
		if err == nil && !reflect.DeepEqual(raw, ref.Raw) {
			err = fmt.Errorf("traced cell-by-cell regeneration differs from experiments.Figure12")
		}
		r.op(err)
		st := machine.SharedSolveCacheStats() // counters restart at every reset
		hits = append(hits, float64(st.Hits))
		misses = append(misses, float64(st.Misses))
		evictions = append(evictions, float64(st.Evictions))
	}

	t := r.tr.times()
	var stCells, dynCells, allCells []float64
	for _, p := range pols {
		d := t.dur["policies."+p.Name()+".Run"]
		allCells = append(allCells, d...)
		switch p.(type) {
		case policies.ST:
			stCells = append(stCells, d...)
		case *policies.Dynamic:
			dynCells = append(dynCells, d...)
		}
	}
	h, m := median(hits), median(misses)
	r.metrics["policies.st_cell_ms"] = mean(stCells) / 1e6
	// Nearly every L2 lookup of a regeneration is an ST state.
	r.metrics["policies.st_states_per_s"] = ratio(sum(hits)+sum(misses), sum(stCells)/1e9)
	r.metrics["policies.st_share"] = ratio(sum(stCells), sum(allCells))
	r.metrics["policies.dynamic_cell_us"] = mean(dynCells) / 1e3
	r.metrics["machine.l2_hits"] = h
	r.metrics["machine.l2_misses"] = m
	r.metrics["machine.l2_evictions"] = median(evictions)
	r.metrics["machine.l2_hit_ratio"] = ratio(h, h+m)
	r.metrics["parallel.speedup.fig12"] = ratio(oneWorker.Seconds(), untraced)
	r.metrics["trace.overhead_pct"] = (ratio(median(traced), untraced) - 1) * 100
	fmt.Printf("  traced %d regenerations on %d workers: %d policy-cell spans\n",
		len(traced), runtime.GOMAXPROCS(0), len(allCells))
	return nil
}

// slowestQuarter is the mean of the slowest quarter of samples (at
// least one of them): a tail figure that a run of a few dozen samples
// still measures steadily, where a high percentile or the maximum
// would rest on one or two of them.
func slowestQuarter(samples []float64) float64 {
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return mean(sorted[len(sorted)-max(1, len(sorted)/4):])
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}
