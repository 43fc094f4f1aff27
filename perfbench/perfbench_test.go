package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

var tinySize = sizes{fleetNodes: 64, fleetPeriods: 4, daemonPeriods: 2000}

// TestMain lets the test binary stand in for the benchmark when a
// set-up probe starts it.
func TestMain(m *testing.M) {
	if slices.Contains(os.Args[1:], "--setup-probe") {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at tiny
// sizes and a near-zero window: each must finish with no failed
// operation and report every metric of its result line.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range []string{"fig12", "fleet", "daemon"} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w, traced), func(t *testing.T) {
				// Seed 1 makes fig12 check the EXPERIMENTS.md headline.
				r := &run{workload: w, seed: 1, seconds: time.Millisecond, size: tinySize, metrics: map[string]float64{}}
				if traced {
					r.tr = newTracer()
				} else {
					setups, err := probeSetup(w, 1, 1, 1)
					if err != nil {
						t.Fatal(err)
					}
					r.setups = setups
				}
				if err := workloadFuncs[w](r); err != nil {
					t.Fatal(err)
				}
				if err := r.finish(); err != nil {
					t.Fatal(err)
				}
				res, err := r.result()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				want := len(endToEnd)
				if traced {
					want = len(perLayer)
				}
				if len(res.Metrics) != want {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
				}
				if !traced {
					for name, m := range res.Metrics {
						if !(m.Value > 0) {
							t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// TestTracedPredictions checks, at tiny sizes, the per-layer
// predictions that hold at any size: ST dominates fig12, the daemon
// never touches the L2 solve cache, and the CPU profile finds the
// control plane on the daemon only.
func TestTracedPredictions(t *testing.T) {
	got := map[string]map[string]float64{}
	for _, w := range []string{"fig12", "fleet", "daemon"} {
		r := &run{workload: w, seed: 2, seconds: time.Millisecond, size: tinySize, metrics: map[string]float64{}, tr: newTracer()}
		shares, samples, err := profiled(func() error { return workloadFuncs[w](r) })
		if err != nil {
			t.Fatal(err)
		}
		if samples == 0 && w != "daemon" {
			t.Fatalf("%s: the CPU profile holds no samples", w)
		}
		got[w] = r.metrics
		for name, v := range shares {
			got[w][name] = v
		}
	}
	if s := got["fig12"]["policies.st_share"]; s < 0.95 {
		t.Errorf("fig12 policies.st_share = %v, want >= 0.95", s)
	}
	for _, m := range []string{"machine.l2_hits", "machine.l2_misses", "machine.l2_evictions"} {
		if v := got["daemon"][m]; v != 0 {
			t.Errorf("daemon %s = %v, want 0", m, v)
		}
	}
	for _, w := range []string{"fig12", "fleet"} {
		if v := got[w]["profile.controlplane_share"]; v != 0 {
			t.Errorf("%s profile.controlplane_share = %v, want 0", w, v)
		}
	}
	if got["daemon"]["controlplane.ops_rejected"] == 0 || got["daemon"]["machine.step_calls"] == 0 {
		t.Errorf("daemon traced run saw no rejections or no steps: %v", got["daemon"])
	}
}

// TestSetupProbeStopsBeforeTimedWork: a set-up probe of every workload
// stops at its first timed operation, having attempted none.
func TestSetupProbeStopsBeforeTimedWork(t *testing.T) {
	for _, w := range []string{"fig12", "fleet", "daemon"} {
		r := &run{workload: w, seed: 1, seconds: time.Millisecond, size: tinySize, metrics: map[string]float64{}, setupProbe: true}
		if err := workloadFuncs[w](r); !errors.Is(err, errSetupProbe) {
			t.Errorf("%s: probe ended with %v, want errSetupProbe", w, err)
		}
		if r.readyAt.IsZero() || r.attempted != 0 {
			t.Errorf("%s: ready at %v after %d attempted operations", w, r.readyAt, r.attempted)
		}
	}
}

// TestProfileSharesFindLayer: the profile decoding attributes samples
// to the layer whose code ran. A loop of machine steps is mostly
// machine.(*Machine).Step, and none of it is the control plane.
func TestProfileSharesFindLayer(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, daemonMix, daemonApps)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	period := core.DefaultParams().Period
	shares, samples, err := profiled(func() error {
		// Reading the clock can cost more than a step, so it is read
		// once every thousand steps.
		for deadline := time.Now().Add(300 * time.Millisecond); time.Now().Before(deadline); {
			for i := 0; i < 1000; i++ {
				if err := m.Step(period); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Fatalf("only %d samples", samples)
	}
	if s := shares["profile.machine_step_share"]; s < 0.5 {
		t.Errorf("profile.machine_step_share = %v over %d samples of a stepping loop, want >= 0.5", s, samples)
	}
	if s := shares["profile.controlplane_share"]; s != 0 {
		t.Errorf("profile.controlplane_share = %v, want 0", s)
	}
}

// fakeClock advances only when the scraper waits or a request takes
// time.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	default:
	}
	if t.After(c.now) {
		c.now = t
	}
	return true
}

// TestScraperChargesFromDueTime: one slow response delays the requests
// queued behind it, and each of them is charged from its due time, not
// from when it was finally sent.
func TestScraperChargesFromDueTime(t *testing.T) {
	ms := func(f float64) float64 { return f * float64(time.Millisecond) }
	clk := &fakeClock{now: time.Unix(0, 0)}
	service := []float64{0.3, 2.5, 0.3, 0.3, 0.3}
	stop := make(chan struct{})
	calls := 0
	sc := &scraper{clk: clk, every: time.Millisecond, paths: []string{"/a", "/b"},
		get: func(path string) (int, error) {
			clk.now = clk.now.Add(time.Duration(ms(service[calls])))
			calls++
			if calls == len(service) {
				close(stop)
			}
			if path == "/b" && calls == 4 {
				return 503, nil
			}
			return 200, nil
		}}
	res := sc.run(stop)
	wantLat := []float64{ms(0.3), ms(2.5), ms(1.8), ms(1.1), ms(0.4)}
	wantLate := []float64{0, 0, ms(1.5), ms(0.8), ms(0.1)}
	for i := range wantLat {
		if d := res.lat[i] - wantLat[i]; d > 1 || d < -1 {
			t.Errorf("request %d latency %v ns, want %v", i, res.lat[i], wantLat[i])
		}
		if d := res.late[i] - wantLate[i]; d > 1 || d < -1 {
			t.Errorf("request %d lateness %v ns, want %v", i, res.late[i], wantLate[i])
		}
	}
	if res.attempted != 5 || res.failed != 1 {
		t.Errorf("attempted %d failed %d, want 5 and 1", res.attempted, res.failed)
	}
}

// TestSummarizeNeedsTenBeyond: a percentile is reported only with at
// least ten samples beyond its rank, and the count is always stated.
func TestSummarizeNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[n-1-i] = float64(i + 1) // unsorted on purpose
		}
		return v
	}
	s := summarize(seq(20), 90, 99)
	if s.N != 20 || s.Median != 10 || len(s.Pcts) != 0 {
		t.Errorf("n=20: %+v, want median 10 and no tail percentiles", s)
	}
	s = summarize(seq(1000), 90, 99)
	if v, ok := s.at(99); !ok || v != 990 {
		t.Errorf("n=1000: p99 = %v, %v; want 990 (ten samples beyond)", v, ok)
	}
	if _, ok := summarize(seq(999), 99).at(99); ok {
		t.Error("n=999: p99 reported with only nine samples beyond it")
	}
	if s := summarize(seq(1000), 99); s.N != 1000 || s.Median != 500 {
		t.Errorf("n=1000: count %d, median %v; want 1000 and 500", s.N, s.Median)
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames: every metric name is well formed and used once, and
// BENCHMARK.json declares exactly the metrics the program reports.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(slices.Clone(endToEnd), perLayer...) {
		if !metricName.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("bad metric name %q", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric %q listed twice", m.name)
		}
		seen[m.name] = true
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what     string
		declared []struct{ Name, Unit string }
		emitted  []struct{ name, unit string }
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.emitted) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program reports %d", c.what, len(c.declared), len(c.emitted))
			continue
		}
		for i, d := range c.declared {
			if d.Name != c.emitted[i].name || d.Unit != c.emitted[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", c.what, i, d.Name, d.Unit, c.emitted[i].name, c.emitted[i].unit)
			}
		}
	}
}

// TestAtRefScalesByTheKernelMean: a time measured while the kernel ran
// at its reference mean is unchanged, and one measured while the
// kernel took twice as long, on average, is halved.
func TestAtRefScalesByTheKernelMean(t *testing.T) {
	r := &run{refs: []float64{refNominal, refNominal}}
	if got := r.atRef(0.3); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("at the reference speed: %v, want 0.3", got)
	}
	r.refs = []float64{refNominal, 3 * refNominal}
	if got := r.atRef(0.3); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("at half the reference speed: %v, want 0.15", got)
	}
}

// TestSelfTime: a span's self time subtracts the union of its children,
// counting overlapping children once, and its inner time.
func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", parent: noSpan, start: 0, end: 25, inner: 2},
		{name: "child", parent: 0, start: 0, end: 10},
		{name: "child", parent: 0, start: 5, end: 15},
		{name: "child", parent: 0, start: 20, end: 30},
	}}
	if got := tr.times().self["root"][0]; got != 25-20-2 {
		t.Errorf("root self time %v, want 3", got)
	}
}

// TestCompareRefusesDifferentEnvironments.
func TestCompareRefusesDifferentEnvironments(t *testing.T) {
	dir := t.TempDir()
	res := jsonResult{Correct: true, Attempted: 1, Metrics: map[string]jsonMetric{"work_s": {Value: 1, Unit: "s"}}}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	env := envStamp{NProc: 2, GOMAXPROCS: 2, CPU: "x", Go: "go1.24.0", Commit: "c1"}
	if err := saveResult(a, env, res); err != nil {
		t.Fatal(err)
	}
	env.Commit = "c2"
	if err := saveResult(b, env, res); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}); code != 0 {
		t.Errorf("same environment, different commit: exit %d, want 0", code)
	}
	env.NProc, env.GOMAXPROCS = 1, 1
	if err := saveResult(b, env, res); err != nil {
		t.Fatal(err)
	}
	if code := compareMain([]string{a, b}); code != 2 {
		t.Errorf("different nproc: exit %d, want 2", code)
	}
}
