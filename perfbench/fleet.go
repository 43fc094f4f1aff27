package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/fleet"
	"repro/internal/machine"
)

func cloneNodes(nodes []fleet.NodeResult) []fleet.NodeResult {
	out := make([]fleet.NodeResult, len(nodes))
	for i, n := range nodes {
		out[i] = n
		out[i].Ways = append([]int(nil), n.Ways...)
		out[i].MBA = append([]int(nil), n.MBA...)
	}
	return out
}

// checkFleet requires every node healthy and the per-node results
// identical to the reference run's.
func checkFleet(ref []fleet.NodeResult, res *fleet.Result, what string) error {
	if res.Health.Healthy != len(ref) || res.Health.Degraded != 0 {
		return fmt.Errorf("%s run: %d healthy, %d degraded of %d nodes", what, res.Health.Healthy, res.Health.Degraded, len(ref))
	}
	if !reflect.DeepEqual(ref, res.Nodes) {
		return fmt.Errorf("%s run: per-node results differ from the warm-up run", what)
	}
	return nil
}

// fleetRun is what one timed RunInto observed.
type fleetRun struct {
	wall     time.Duration
	p50, p99 time.Duration
	merge    time.Duration
	pool     fleet.PoolStats
	l1, sc   float64 // L1 solve-cache and score-memo hit ratios
	shared   machine.SharedCacheStats
	periods  int
}

// runFleet measures RunInto of the fixed fleet into a reused Result,
// after an untimed warm-up run that is also the reference for the
// per-node check.
func runFleet(r *run) error {
	cfg := fleet.Config{Nodes: r.size.fleetNodes, Periods: r.size.fleetPeriods, Seed: r.seed}
	if err := r.calibrate(machine.DefaultConfig()); err != nil {
		return err
	}
	machine.ResetSharedSolveCache()
	var warm fleet.Result
	if err := fleet.RunInto(cfg, &warm); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	ref := cloneNodes(warm.Nodes)
	if err := r.ready(); err != nil {
		return err
	}

	var res fleet.Result
	measure := func(window time.Duration, parent spanID, what string) []fleetRun {
		var runs []fleetRun
		for deadline := time.Now().Add(window); len(runs) == 0 || time.Now().Before(deadline); {
			runtime.GC() // start every run from the same heap
			r.timeRef()
			id := r.tr.begin("fleet.RunInto", parent)
			start := time.Now()
			err := fleet.RunInto(cfg, &res)
			wall := time.Since(start)
			r.tr.end(id)
			if err == nil {
				err = checkFleet(ref, &res, what)
			}
			r.op(err)
			runs = append(runs, fleetRun{
				wall: wall, p50: res.P50, p99: res.P99, merge: res.StripeMerge, pool: res.Pool,
				l1:      ratio(float64(res.CacheHits), float64(res.CacheHits+res.CacheMisses)),
				sc:      ratio(float64(res.ScoreHits), float64(res.ScoreHits+res.ScoreMisses)),
				shared:  res.Shared,
				periods: res.TotalPeriods,
			})
		}
		return runs
	}
	field := func(runs []fleetRun, f func(fleetRun) float64) float64 {
		v := make([]float64, len(runs))
		for i, x := range runs {
			v[i] = f(x)
		}
		return median(v)
	}

	window := r.seconds
	if r.tr != nil {
		window /= 2
	}
	runs := measure(window, noSpan, "timed")
	work := field(runs, func(x fleetRun) float64 { return x.wall.Seconds() })
	tput := field(runs, func(x fleetRun) float64 { return float64(x.periods) / x.wall.Seconds() })
	p99 := field(runs, func(x fleetRun) float64 { return float64(x.p99) / 1e3 })
	note := fmt.Sprintf("median of %d runs of %d nodes x %d periods", len(runs), cfg.Nodes, cfg.Periods)
	report("node_periods_per_s", tput, "1/s", note)
	report("fleet_period_p99_us", p99, "us", "Result.P99, "+note)
	report("fleet_run_ref_s", r.atRef(work), "s", refNote)
	r.metrics["work_s"] = r.atRef(work)
	r.metrics["tail_us"] = p99
	if r.tr == nil {
		return nil
	}

	var oneWorker time.Duration
	withWorkers(1, func() {
		start := time.Now()
		err := fleet.RunInto(cfg, &res)
		oneWorker = time.Since(start)
		if err == nil {
			err = checkFleet(ref, &res, "one-worker")
		}
		r.op(err)
	})
	root := r.tr.begin("fleet.traced", noSpan)
	traced := measure(r.seconds/2, root, "traced")
	r.tr.end(root)
	hits := field(traced, func(x fleetRun) float64 { return float64(x.shared.Hits) })
	misses := field(traced, func(x fleetRun) float64 { return float64(x.shared.Misses) })
	r.metrics["fleet.run_ms"] = median(r.tr.times().dur["fleet.RunInto"]) / 1e6
	r.metrics["fleet.period_p50_us"] = field(traced, func(x fleetRun) float64 { return float64(x.p50) / 1e3 })
	r.metrics["fleet.stripe_merge_us"] = field(traced, func(x fleetRun) float64 { return float64(x.merge) / 1e3 })
	r.metrics["fleet.pool_hits"] = field(traced, func(x fleetRun) float64 { return float64(x.pool.Hits) })
	r.metrics["fleet.pool_carries"] = field(traced, func(x fleetRun) float64 { return float64(x.pool.Carries) })
	r.metrics["fleet.l1_hit_ratio"] = field(traced, func(x fleetRun) float64 { return x.l1 })
	r.metrics["fleet.score_hit_ratio"] = field(traced, func(x fleetRun) float64 { return x.sc })
	r.metrics["machine.l2_hits"] = hits
	r.metrics["machine.l2_misses"] = misses
	r.metrics["machine.l2_evictions"] = field(traced, func(x fleetRun) float64 { return float64(x.shared.Evictions) })
	r.metrics["machine.l2_hit_ratio"] = ratio(hits, hits+misses)
	r.metrics["parallel.speedup.fleet"] = ratio(oneWorker.Seconds(), work)
	r.metrics["trace.overhead_pct"] = (ratio(field(traced, func(x fleetRun) float64 { return x.wall.Seconds() }), work) - 1) * 100
	return nil
}
