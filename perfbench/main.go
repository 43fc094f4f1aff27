// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload — fig12, fleet or daemon — for a fixed time from a
// seed, checks the program's outputs, and prints the workload's metrics
// by name and unit, ending with one JSON result line. With -trace 1 it
// makes the traced run instead: spans around every layer call it makes,
// reported as per-layer metrics. README.md documents the workloads, the
// metrics and what each should move.
//
//	go run . --workload fleet --seed 1 --seconds 10 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/machine"
	"repro/internal/workloads"
)

// outDir holds what a run leaves behind (span files, result stamps),
// relative to the repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// An untraced run measures set-up with probes, processes that stop at
// the workload's first timed operation; setup_s is their median. It
// starts at least minProbes and keeps starting them until minProbeTime
// has passed, up to maxProbes: a cheap set-up is mostly process start,
// whose cost varies, and needs many probes for a steady median.
const (
	minProbes    = 7
	maxProbes    = 101
	minProbeTime = 500 * time.Millisecond
)

// endToEnd lists the metrics every untraced run reports, in order, with
// their units. Each workload defines work_s and tail_us for its own unit
// of work (README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"work_s", "s"},
	{"tail_us", "us"},
}

// perLayer lists the metrics every traced run reports, with units. A
// layer the workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"policies.st_cell_ms", "ms"},
	{"policies.st_states_per_s", "1/s"},
	{"policies.st_share", "ratio"},
	{"policies.dynamic_cell_us", "us"},
	{"machine.l2_hits", "count"},
	{"machine.l2_misses", "count"},
	{"machine.l2_evictions", "count"},
	{"machine.l2_hit_ratio", "ratio"},
	{"machine.step_us", "us"},
	{"machine.step_calls", "count"},
	{"machine.step_us.first10pct", "us"},
	{"machine.step_us.last10pct", "us"},
	{"machine.read_counters_ns", "ns"},
	{"machine.read_counters_calls", "count"},
	{"machine.set_allocation_ns", "ns"},
	{"machine.set_allocation_calls", "count"},
	{"core.idle_self_us", "us"},
	{"core.explore_self_us", "us"},
	{"core.profile_us", "us"},
	{"core.reprofiles", "count"},
	{"fleet.run_ms", "ms"},
	{"fleet.period_p50_us", "us"},
	{"fleet.stripe_merge_us", "us"},
	{"fleet.pool_hits", "count"},
	{"fleet.pool_carries", "count"},
	{"fleet.l1_hit_ratio", "ratio"},
	{"fleet.score_hit_ratio", "ratio"},
	{"parallel.speedup.fig12", "x"},
	{"parallel.speedup.fleet", "x"},
	{"controlplane.drain_p99_us", "us"},
	{"controlplane.observe_ns", "ns"},
	{"controlplane.handler_us.metrics", "us"},
	{"controlplane.handler_us.status", "us"},
	{"controlplane.handler_us.readyz", "us"},
	{"controlplane.ops_ok", "count"},
	{"controlplane.ops_rejected", "count"},
	{"scrape.late_p99_us", "us"},
	{"workloads.stream_ref_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"profile.controlplane_share", "ratio"},
	{"profile.core_share", "ratio"},
	{"profile.machine_step_share", "ratio"},
	{"host.ref_ms", "ms"},
}

// sizes fixes how much work the workloads do. The benchmark always runs
// fullSize; the tests shrink it.
type sizes struct {
	fleetNodes, fleetPeriods int
	daemonPeriods            int // timed periods per daemon episode
}

var fullSize = sizes{fleetNodes: 16384, fleetPeriods: 10, daemonPeriods: 100_000}

var workloadFuncs = map[string]func(*run) error{
	"fig12":  runFig12,
	"fleet":  runFleet,
	"daemon": runDaemon,
}

// run is one benchmark process: its settings, the operations it
// attempted and failed, and the metrics it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	size     sizes
	tr       *tracer // nil in the untraced run

	setupProbe bool      // stop at the first timed operation (set-up probe)
	readyAt    time.Time // when a set-up probe reached it

	attempted, failed int
	setups            []float64 // seconds per set-up probe
	streamRefs        []float64 // ms per StreamMissRates call
	refs              []float64 // seconds per reference kernel (hostspeed.go)
	gapBuf            []float64 // daemon period gaps, reused across episodes

	metrics map[string]float64 // JSON metrics by name
}

// op counts one attempted operation; a non-nil err marks it failed and
// is reported on standard error.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
	}
}

// errSetupProbe ends a set-up probe at its workload's first timed
// operation.
var errSetupProbe = errors.New("set-up probe reached the first timed operation")

// ready marks the end of a workload's set-up: its first timed operation
// comes next. A set-up probe stops here.
func (r *run) ready() error {
	if !r.setupProbe {
		return nil
	}
	r.readyAt = time.Now()
	return errSetupProbe
}

// probeSetup measures the workload's set-up as a fresh process pays it:
// it starts this program with --setup-probe, one process after another,
// at least lo times and until minProbeTime has passed, at most hi
// times. Each probe sets the workload up, prints the wall-clock time at
// which it reached the first timed operation, and exits. A set-up time
// runs from just before the process is started to that moment, so it
// includes loading the binary, starting the runtime and initializing
// packages, as well as calibration, the STREAM reference, the fleet's
// warm-up run and the daemon's boot.
func probeSetup(workload string, seed int64, lo, hi int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	for begin := time.Now(); len(secs) < hi && (len(secs) < lo || time.Since(begin) < minProbeTime); {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10), "--setup-probe")
		cmd.Stderr = os.Stderr
		start := time.Now().UnixNano()
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return nil, fmt.Errorf("set-up probe printed nothing")
		}
		readyAt, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil || readyAt <= start {
			return nil, fmt.Errorf("set-up probe printed %q", fields[len(fields)-1])
		}
		secs = append(secs, float64(readyAt-start)/1e9)
	}
	return secs, nil
}

// streamRef computes the STREAM reference miss rates for m, timing it.
func (r *run) streamRef(m *machine.Machine) (map[int]float64, error) {
	start := time.Now()
	ref, err := workloads.StreamMissRates(m)
	r.streamRefs = append(r.streamRefs, float64(time.Since(start))/1e6)
	return ref, err
}

// calibrate is the set-up every workload shares: calibrate the workload
// catalog against the machine model and compute the STREAM reference.
func (r *run) calibrate(cfg machine.Config) error {
	if _, err := workloads.Catalog(cfg); err != nil {
		return err
	}
	m, err := machine.New(cfg)
	if err != nil {
		return err
	}
	_, err = r.streamRef(m)
	return err
}

// runWorkload runs the workload; the traced run runs it under the CPU
// profiler and adds the profiled layers' shares to its metrics.
func runWorkload(r *run, fn func(*run) error) error {
	if r.tr == nil {
		return fn(r)
	}
	shares, samples, err := profiled(func() error { return fn(r) })
	if err != nil {
		return err
	}
	for name, v := range shares {
		r.metrics[name] = v
	}
	fmt.Printf("  CPU profile: %d samples\n", samples)
	return nil
}

// report prints one workload metric line for the human reader.
func report(name string, v float64, unit, note string) {
	if note != "" {
		note = "  " + note
	}
	fmt.Printf("  %-28s %14.6g %-6s%s\n", name, v, unit, note)
}

// jsonResult is the last line of standard output.
type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result assembles the JSON result from the run's metrics: every
// end-to-end metric untraced, every per-layer metric traced.
func (r *run) result() (jsonResult, error) {
	list := endToEnd
	if r.tr != nil {
		list = perLayer
	}
	res := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, m := range list {
		v, ok := r.metrics[m.name]
		if !ok && r.tr != nil {
			v, ok = 0, true // a layer this workload does not reach
		}
		if !ok {
			return res, fmt.Errorf("workload %s did not measure %s", r.workload, m.name)
		}
		res.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// finish records the metrics every workload shares and prints them.
func (r *run) finish() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.metrics["peak_rss_mb"] = rss
	r.metrics["workloads.stream_ref_ms"] = median(r.streamRefs)
	if len(r.setups) > 0 {
		r.metrics["setup_s"] = median(r.setups)
		report("setup_s", r.metrics["setup_s"], "s", fmt.Sprintf("median of %d processes, start to first timed operation", len(r.setups)))
	}
	report("peak_rss_mb", rss, "MB", "VmHWM")
	r.metrics["host.ref_ms"] = mean(r.refs) * 1e3
	report("host_ref_ms", r.metrics["host.ref_ms"], "ms", fmt.Sprintf("mean reference kernel time (n=%d)", len(r.refs)))
	report("error_rate", ratio(float64(r.failed), float64(r.attempted)), "ratio",
		fmt.Sprintf("%d failed of %d attempted", r.failed, r.attempted))
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "", "workload to run: fig12, fleet or daemon")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics)")
	setupProbe := flag.Bool("setup-probe", false, "set the workload up, print the time its first timed operation was reached, and exit")
	flag.Parse()
	fn, ok := workloadFuncs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloadFuncs))
		for n := range workloadFuncs {
			names = append(names, n)
		}
		slices.Sort(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds >= 1, --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		size:     fullSize,
		metrics:  map[string]float64{},
	}
	if *setupProbe {
		r.setupProbe = true
		if err := fn(r); !errors.Is(err, errSetupProbe) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: set-up probe: %v\n", r.workload, err)
			os.Exit(1)
		}
		fmt.Println(r.readyAt.UnixNano())
		return
	}
	if *trace == 1 {
		r.tr = newTracer()
	} else {
		setups, err := probeSetup(r.workload, r.seed, minProbes, maxProbes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
			os.Exit(1)
		}
		r.setups = setups
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", r.workload, r.seed, *seconds, *trace)
	if err := runWorkload(r, fn); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
		os.Exit(1)
	}
	env := stamp() // after the workload: hashing the sources is not set-up
	fmt.Printf("  env: %s\n", env)
	if err := r.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}

	tag := fmt.Sprintf("%s-seed%d-trace%d", r.workload, r.seed, *trace)
	if err := r.tr.write(filepath.Join(outDir, "spans-"+r.workload+".txt.gz")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		os.Exit(1)
	}
	res, err := r.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := saveResult(filepath.Join(outDir, "results", tag+".json"), env, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: saving result: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
