package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/controlplane"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// The daemon workload: one copartd-shaped node, booted as copartd boots
// it, driven through episodes of sizes.daemonPeriods control periods
// while a seeded admission schedule churns its applications and an
// open-loop scraper reads its control plane.
const (
	daemonApps  = 4
	bootPeriods = 64  // periods run while booting, until /readyz answers 200
	admitEvery  = 200 // periods between admission operations
	addCores    = 2
	scrapeEvery = time.Millisecond // 1000 requests per second

	tracedEpisodes = 2
)

var daemonMix = workloads.HBoth

var scrapePaths = []string{"/metrics", "/status", "/readyz"}

// admitOp is one scheduled admission operation, with the outcome the
// schedule expects.
type admitOp struct {
	period int // enqueued at the first period boundary at or after this one
	kind   string
	spec   controlplane.AppSpec // add
	name   string               // remove, reweight
	weight float64              // reweight
	wantOK bool
}

// admissionCycle is the order in which the schedule's operations come:
// membership swings between daemonApps and daemonApps-1 applications,
// two of every six operations admit a new one, and one in six removes
// an application that never existed, which the control plane must
// reject. The seed picks the victims, the admitted benchmarks and the
// weights, so every seed churns the node equally hard.
var admissionCycle = []string{"remove", "add", "reweight", "remove", "add", "ghost"}

// admissionSchedule draws one operation every admitEvery periods from
// seed, tracking the expected membership so that every add fits the
// free cores. It returns the schedule and the application set expected
// at its end.
func admissionSchedule(cfg machine.Config, boot []machine.AppModel, seed int64, periods int) ([]admitOp, []string) {
	rng := rand.New(rand.NewSource(seed))
	type app struct {
		name  string
		cores int
	}
	var active []app
	used := 0
	for _, m := range boot {
		active = append(active, app{m.Name, m.Cores})
		used += m.Cores
	}
	benches := workloads.Names()
	var ops []admitOp
	for k := 1; k*admitEvery < periods; k++ {
		at := k * admitEvery
		switch admissionCycle[(k-1)%len(admissionCycle)] {
		case "ghost":
			ops = append(ops, admitOp{period: at, kind: "remove", name: fmt.Sprintf("ghost-%d", k)})
		case "add":
			bench := benches[rng.Intn(len(benches))]
			cores := min(addCores, cfg.Cores-used)
			name := fmt.Sprintf("%s-%d", bench, k)
			ops = append(ops, admitOp{period: at, kind: "add", wantOK: true,
				spec: controlplane.AppSpec{Name: name, Benchmark: bench, Cores: cores}})
			active = append(active, app{name, cores})
			used += cores
		case "remove":
			i := rng.Intn(len(active))
			ops = append(ops, admitOp{period: at, kind: "remove", name: active[i].name, wantOK: true})
			used -= active[i].cores
			active = slices.Delete(active, i, i+1)
		case "reweight":
			i := rng.Intn(len(active))
			w := []float64{0.5, 1.5, 2, 3}[rng.Intn(4)]
			ops = append(ops, admitOp{period: at, kind: "reweight", name: active[i].name, weight: w, wantOK: true})
		}
	}
	final := make([]string, len(active))
	for i, a := range active {
		final[i] = a.name
	}
	slices.Sort(final)
	return ops, final
}

// daemonNode is one booted node: machine, manager, control plane and
// its HTTP server on loopback.
type daemonNode struct {
	m      *machine.Machine
	mgr    *core.Manager
	plane  *controlplane.Plane
	tt     *timedTarget // traced runs only
	tr     *tracer
	period time.Duration

	sched []admitOp
	next  int

	srv    *http.Server
	served chan struct{}
	base   string

	// Per-episode observations, reset when the timed part starts.
	cur      spanID // the control period in flight (traced runs)
	lastObs  time.Time
	gaps     []float64 // ns between consecutive OnPeriod calls
	digest   uint64
	buf      []byte
	profiles int
	refused  int // schedule operations the admission queue refused
}

// bootDaemon builds the node exactly as copartd does — a machine
// without a solve cache, the H-Both mix, the STREAM reference, a
// seeded manager and a control plane — starts its HTTP server, and
// runs bootPeriods control periods so the node is ready to serve.
func bootDaemon(r *run, sched []admitOp, tr *tracer, parent spanID) (*daemonNode, error) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	models, err := workloads.Mix(cfg, daemonMix, daemonApps)
	if err != nil {
		return nil, err
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			return nil, err
		}
	}
	ref, err := r.streamRef(m)
	if err != nil {
		return nil, err
	}
	n := &daemonNode{m: m, tr: tr, sched: sched, cur: noSpan, digest: fnvOffset}
	var target core.Target = m
	if tr != nil {
		n.tt = &timedTarget{m: m, tr: tr, cur: noSpan}
		target = n.tt
	}
	rng, src := core.NewSeededRand(r.seed)
	params := core.DefaultParams()
	n.period = params.Period
	n.mgr, err = core.NewManager(target, params, ref, core.Envelope{LoWay: 0, Ways: cfg.LLCWays}, rng)
	if err != nil {
		return nil, err
	}
	n.mgr.SnapshotSource = src
	n.plane = controlplane.New(&controlplane.MachineAdmitter{M: m, Mgr: n.mgr}, n.mgr, nil)
	n.mgr.BetweenPeriods = func() { n.between(parent) }
	n.mgr.OnPeriod = n.onPeriod

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("control plane listener: %w", err)
	}
	n.base = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: timedHandler(n.plane.Handler(), tr, parent)}
	n.served = make(chan struct{})
	go func() {
		defer close(n.served)
		n.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed after stop
	}()

	if err := n.drive(time.Duration(bootPeriods)*n.period, parent); err != nil {
		n.stop()
		return nil, fmt.Errorf("boot: %w", err)
	}
	get, closeIdle := httpGetter(n.base)
	defer closeIdle()
	if status, err := get("/readyz"); err != nil || status != http.StatusOK {
		n.stop()
		return nil, fmt.Errorf("boot: /readyz answered %d (%v) after %d periods", status, err, bootPeriods)
	}
	return n, nil
}

// stop shuts the HTTP server down and waits for it to exit.
func (n *daemonNode) stop() {
	n.srv.Close() //nolint:errcheck // closing listeners; nothing to report
	<-n.served
}

// between is the manager's BetweenPeriods hook: enqueue the admission
// operations due by now, then drain them, on the controller goroutine —
// the deterministic driver path.
func (n *daemonNode) between(parent spanID) {
	k := int(n.m.Now() / n.period)
	for n.next < len(n.sched) && n.sched[n.next].period <= k {
		op := n.sched[n.next]
		n.next++
		var err error
		switch op.kind {
		case "add":
			err = n.plane.EnqueueAdd(op.spec)
		case "remove":
			err = n.plane.EnqueueRemove(op.name)
		default:
			err = n.plane.EnqueueReweight(op.name, op.weight)
		}
		if err != nil {
			n.refused++
		}
	}
	id := n.tr.begin("controlplane.Drain", parent)
	n.plane.Drain()
	n.tr.end(id)
}

// onPeriod is the manager's OnPeriod hook: time the gap since the last
// report, mirror the report into the control plane, and fold it into
// the episode's digest.
func (n *daemonNode) onPeriod(rep core.PeriodReport) {
	now := time.Now()
	if !n.lastObs.IsZero() {
		n.gaps = append(n.gaps, float64(now.Sub(n.lastObs)))
	}
	n.lastObs = now
	id := n.tr.begin("controlplane.Observe", n.cur)
	n.plane.Observe(rep)
	n.tr.end(id)
	n.fold(rep)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold mixes one period report into the running FNV-1a digest.
func (n *daemonNode) fold(rep core.PeriodReport) {
	b := n.buf[:0]
	b = binary.LittleEndian.AppendUint64(b, uint64(rep.Time))
	b = binary.LittleEndian.AppendUint64(b, uint64(rep.Phase))
	for i, app := range rep.Apps {
		b = append(b, app...)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rep.Slowdowns[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(rep.State.Ways[i]))
		b = binary.LittleEndian.AppendUint64(b, uint64(rep.State.MBA[i]))
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rep.Unfairness))
	n.buf = b
	for _, c := range b {
		n.digest = (n.digest ^ uint64(c)) * fnvPrime
	}
}

// drive runs the controller for d of virtual time. Untraced it is
// Manager.Run, as in copartd. Traced it performs the same loop through
// the manager's public phase steps, so each period becomes a span.
func (n *daemonNode) drive(d time.Duration, parent spanID) error {
	if n.tr == nil {
		return n.mgr.Run(d)
	}
	deadline := n.m.Now() + d
	for n.m.Now() < deadline {
		n.between(parent)
		var name string
		var step func() error
		switch n.mgr.Phase() {
		case core.PhaseProfile:
			name, step = "core.Profile", n.mgr.Profile
			n.profiles++
		case core.PhaseExplore:
			name, step = "core.ExploreStep", func() error { _, err := n.mgr.ExploreStep(); return err }
		case core.PhaseIdle:
			name, step = "core.IdleStep", func() error { _, err := n.mgr.IdleStep(); return err }
		default:
			return fmt.Errorf("unexpected controller phase %v", n.mgr.Phase())
		}
		n.cur = n.tr.begin(name, parent)
		n.tt.cur = n.cur
		err := step()
		n.tr.end(n.cur)
		n.cur, n.tt.cur = noSpan, noSpan
		if err != nil {
			return err
		}
	}
	return nil
}

// timedHandler wraps the control plane's handler in one span per
// request when tracing.
func timedHandler(h http.Handler, tr *tracer, parent spanID) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		id := tr.begin("controlplane.handler"+req.URL.Path, parent)
		h.ServeHTTP(w, req)
		tr.end(id)
	})
}

// episode is what one timed daemon episode observed.
type episode struct {
	wall          time.Duration
	gaps          summary // ns between consecutive period reports
	scrape        scrapeResult
	digest        uint64
	opsOK, opsRej uint64
	steps         []float64
	profiles      int
	readNs        int64
	readCalls     int64
	setNs         int64
	setCalls      int64
	l2            machine.SharedCacheStats
}

// runEpisode boots a node, runs the run's daemonPeriods periods against
// the admission schedule with the scraper reading the control plane,
// and checks the admission outcomes and final membership against the
// schedule.
func runEpisode(r *run, sched []admitOp, final []string, tr *tracer) (episode, error) {
	var ep episode
	runtime.GC() // start every episode from the same heap
	root := tr.begin("daemon.episode", noSpan)
	defer tr.end(root)
	n, err := bootDaemon(r, sched, tr, root)
	if err != nil {
		return ep, err
	}
	defer n.stop()
	if err := r.ready(); err != nil {
		return ep, err
	}
	r.timeRef()

	n.gaps = r.gapBuf[:0]
	defer func() { r.gapBuf = n.gaps[:0] }()
	n.lastObs = time.Time{}
	n.profiles = 0
	if n.tt != nil {
		n.tt.steps = make([]float64, 0, 2*r.size.daemonPeriods)
		n.tt.readNs, n.tt.readCalls, n.tt.setNs, n.tt.setCalls = 0, 0, 0, 0
	}
	l2Before := machine.SharedSolveCacheStats()

	get, closeIdle := httpGetter(n.base)
	defer closeIdle()
	sc := &scraper{clk: realClock{}, every: scrapeEvery, paths: scrapePaths, get: get}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ep.scrape = sc.run(stop)
	}()
	start := time.Now()
	runErr := n.drive(time.Duration(r.size.daemonPeriods)*n.period, root)
	ep.wall = time.Since(start)
	close(stop)
	wg.Wait()
	if runErr != nil {
		return ep, runErr
	}

	l2After := machine.SharedSolveCacheStats()
	ep.l2 = machine.SharedCacheStats{
		Hits:      l2After.Hits - l2Before.Hits,
		Misses:    l2After.Misses - l2Before.Misses,
		Evictions: l2After.Evictions - l2Before.Evictions,
	}
	ep.gaps = summarize(n.gaps, 99)
	ep.digest, ep.profiles = n.digest, n.profiles
	if n.tt != nil {
		ep.steps = n.tt.steps
		ep.readNs, ep.readCalls, ep.setNs, ep.setCalls = n.tt.readNs, n.tt.readCalls, n.tt.setNs, n.tt.setCalls
	}
	ep.opsOK, ep.opsRej = n.plane.AdmissionStats()

	var wantOK, wantRej uint64
	for _, op := range sched {
		if op.wantOK {
			wantOK++
		} else {
			wantRej++
		}
	}
	var errs []error
	if ep.opsOK != wantOK || ep.opsRej != wantRej {
		errs = append(errs, fmt.Errorf("admissions applied/rejected %d/%d, schedule expects %d/%d",
			ep.opsOK, ep.opsRej, wantOK, wantRej))
	}
	if n.refused > 0 {
		errs = append(errs, fmt.Errorf("admission queue refused %d scheduled operations", n.refused))
	}
	got := append([]string(nil), n.m.Apps()...)
	slices.Sort(got)
	if !slices.Equal(got, final) {
		errs = append(errs, fmt.Errorf("final applications %v, schedule expects %v", got, final))
	}
	return ep, errors.Join(errs...)
}

// runDaemon boots and runs identical daemon episodes for the run's
// seconds. Every episode must fold the same period digest. The traced
// run spends half its seconds on untraced episodes, for the digest and
// the tracing overhead, then makes tracedEpisodes traced ones: an
// episode records some 300 000 spans, and two are enough to read the
// per-layer costs from.
func runDaemon(r *run) error {
	cfg := machine.DefaultConfig()
	boot, err := workloads.Mix(cfg, daemonMix, daemonApps)
	if err != nil {
		return err
	}
	periods := r.size.daemonPeriods
	sched, final := admissionSchedule(cfg, boot, r.seed, bootPeriods+periods)
	r.gapBuf = make([]float64, 0, periods)
	var eps []episode
	var digest uint64
	play := func(tr *tracer) error {
		ep, err := runEpisode(r, sched, final, tr)
		if ep.wall == 0 {
			return err // the episode did not get to run
		}
		if err == nil && len(eps) > 0 && ep.digest != digest {
			err = fmt.Errorf("episode digest %016x differs from the first episode's %016x", ep.digest, digest)
		}
		if len(eps) == 0 {
			digest = ep.digest
		}
		r.op(err)
		r.attempted += len(sched) + ep.scrape.attempted
		r.failed += ep.scrape.failed
		eps = append(eps, ep)
		return nil
	}
	window := r.seconds
	if r.tr != nil {
		window /= 2 // the other half is traced
	}
	for deadline := time.Now().Add(window); len(eps) < 2 || time.Now().Before(deadline); {
		if err := play(nil); err != nil {
			return err
		}
	}
	untraced := eps
	if r.tr != nil {
		for i := 0; i < tracedEpisodes; i++ {
			if err := play(r.tr); err != nil {
				return err
			}
		}
	}

	var walls, gapP50, gapP99, lat, lateness []float64
	for _, ep := range untraced {
		walls = append(walls, ep.wall.Seconds())
		p99, ok := ep.gaps.at(99)
		if !ok {
			return fmt.Errorf("too few period reports (%d) for a p99", ep.gaps.N)
		}
		gapP50 = append(gapP50, ep.gaps.Median)
		gapP99 = append(gapP99, p99)
		lat = append(lat, ep.scrape.lat...)
		lateness = append(lateness, ep.scrape.late...)
	}
	work := median(walls)
	note := fmt.Sprintf("median of %d episodes of %d periods", len(untraced), periods)
	report("daemon_periods_per_s", float64(periods)/work, "1/s", note)
	gapNote := fmt.Sprintf("median over %d episodes of the episode's figure (n=%d gaps each)", len(untraced), untraced[0].gaps.N)
	report("daemon_period_p50_us", median(gapP50)/1e3, "us", gapNote)
	report("daemon_period_p99_us", median(gapP99)/1e3, "us", gapNote)
	latSum := summarize(lat, 99)
	report("scrape_p50_us", latSum.Median/1e3, "us", fmt.Sprintf("n=%d", latSum.N))
	if v, ok := latSum.at(99); ok {
		report("scrape_p99_us", v/1e3, "us", fmt.Sprintf("n=%d", latSum.N))
	}
	report("scrape_late_p50_us", median(lateness)/1e3, "us", "due time to request sent, included in scrape_p50_us")
	report("daemon_episode_ref_s", r.atRef(work), "s", refNote)
	r.metrics["work_s"] = r.atRef(work)
	r.metrics["tail_us"] = median(gapP99) / 1e3
	if r.tr == nil {
		return nil
	}

	traced := eps[len(untraced):]
	t := r.tr.times()
	var steps, first, last, tracedWalls, late []float64
	var readNs, readCalls, setNs, setCalls, profiles, okOps, rejOps float64
	var l2 machine.SharedCacheStats
	for _, ep := range traced {
		steps = append(steps, ep.steps...)
		tenth := len(ep.steps) / 10
		first = append(first, ep.steps[:tenth]...)
		last = append(last, ep.steps[len(ep.steps)-tenth:]...)
		tracedWalls = append(tracedWalls, ep.wall.Seconds())
		late = append(late, ep.scrape.late...)
		readNs += float64(ep.readNs)
		readCalls += float64(ep.readCalls)
		setNs += float64(ep.setNs)
		setCalls += float64(ep.setCalls)
		profiles += float64(ep.profiles)
		okOps += float64(ep.opsOK)
		rejOps += float64(ep.opsRej)
		l2.Hits += ep.l2.Hits
		l2.Misses += ep.l2.Misses
		l2.Evictions += ep.l2.Evictions
	}
	n := float64(len(traced))
	drain, _ := summarize(t.dur["controlplane.Drain"], 99).at(99)
	lateP99, _ := summarize(late, 99).at(99)
	r.metrics["machine.step_us"] = mean(steps) / 1e3
	r.metrics["machine.step_calls"] = float64(len(steps)) / n
	r.metrics["machine.step_us.first10pct"] = mean(first) / 1e3
	r.metrics["machine.step_us.last10pct"] = mean(last) / 1e3
	r.metrics["machine.read_counters_ns"] = ratio(readNs, readCalls)
	r.metrics["machine.read_counters_calls"] = readCalls / n
	r.metrics["machine.set_allocation_ns"] = ratio(setNs, setCalls)
	r.metrics["machine.set_allocation_calls"] = setCalls / n
	r.metrics["machine.l2_hits"] = float64(l2.Hits) / n
	r.metrics["machine.l2_misses"] = float64(l2.Misses) / n
	r.metrics["machine.l2_evictions"] = float64(l2.Evictions) / n
	r.metrics["machine.l2_hit_ratio"] = ratio(float64(l2.Hits), float64(l2.Hits+l2.Misses))
	r.metrics["core.idle_self_us"] = mean(t.self["core.IdleStep"]) / 1e3
	r.metrics["core.explore_self_us"] = mean(t.self["core.ExploreStep"]) / 1e3
	r.metrics["core.profile_us"] = mean(t.dur["core.Profile"]) / 1e3
	r.metrics["core.reprofiles"] = profiles / n // the first profile ran at boot
	r.metrics["controlplane.drain_p99_us"] = drain / 1e3
	r.metrics["controlplane.observe_ns"] = mean(t.dur["controlplane.Observe"])
	for _, p := range scrapePaths {
		r.metrics["controlplane.handler_us."+p[1:]] = mean(t.dur["controlplane.handler"+p]) / 1e3
	}
	r.metrics["controlplane.ops_ok"] = okOps / n
	r.metrics["controlplane.ops_rejected"] = rejOps / n
	r.metrics["scrape.late_p99_us"] = lateP99 / 1e3
	r.metrics["trace.overhead_pct"] = (ratio(median(tracedWalls), work) - 1) * 100
	fmt.Printf("  traced %d episodes: %d spans\n", len(traced), len(t.dur["core.IdleStep"])+len(t.dur["core.ExploreStep"])+len(t.dur["core.Profile"]))
	return nil
}
