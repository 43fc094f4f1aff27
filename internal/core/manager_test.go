package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/fairness"
	"repro/internal/machine"
	"repro/internal/workloads"
)

// testSetup builds a machine running the given mix plus the STREAM
// reference table and a manager over the full cache.
func testSetup(t *testing.T, kind workloads.MixKind, n int) (*machine.Machine, *Manager) {
	t.Helper()
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	models, err := workloads.Mix(cfg, kind, n)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range models {
		if err := m.AddApp(model); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := workloads.StreamMissRates(m)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 0, Ways: cfg.LLCWays},
		rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	return m, mgr
}

// eqUnfairness computes the unfairness of the EQ allocation for the
// machine's current applications.
func eqUnfairness(t *testing.T, m *machine.Machine) float64 {
	t.Helper()
	cfg := m.Config()
	names := m.Apps()
	counts, err := machine.EqualSplit(cfg.LLCWays, len(names))
	if err != nil {
		t.Fatal(err)
	}
	masks, err := machine.AssignContiguousWays(counts, 0, cfg.LLCWays)
	if err != nil {
		t.Fatal(err)
	}
	level := EqualMBAShare(len(names))
	models := make([]machine.AppModel, len(names))
	allocs := make([]machine.Alloc, len(names))
	for i, name := range names {
		model, err := m.Model(name)
		if err != nil {
			t.Fatal(err)
		}
		models[i] = model
		allocs[i] = machine.Alloc{CBM: masks[i], MBALevel: level}
	}
	perfs, err := m.SolveFor(models, allocs)
	if err != nil {
		t.Fatal(err)
	}
	slowdowns := make([]float64, len(perfs))
	for i, p := range perfs {
		solo, err := m.SoloPerf(models[i])
		if err != nil {
			t.Fatal(err)
		}
		slowdowns[i] = solo.IPS / p.IPS
	}
	u, err := fairness.Unfairness(slowdowns)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// runToIdle profiles and explores until the manager goes idle.
func runToIdle(t *testing.T, mgr *Manager) PeriodReport {
	t.Helper()
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	if mgr.Phase() != PhaseExplore {
		t.Fatalf("after Profile: phase=%v", mgr.Phase())
	}
	var last PeriodReport
	mgr.OnPeriod = func(r PeriodReport) { last = r }
	for i := 0; i < 300; i++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			t.Fatal(err)
		}
		if done {
			if mgr.Phase() != PhaseIdle {
				t.Fatalf("done but phase=%v", mgr.Phase())
			}
			return last
		}
	}
	t.Fatal("exploration did not converge within 300 periods")
	return last
}

// TestManagerStreamingFairness pins that every period's reported
// unfairness is fairness.Unfairness over that period's slowdowns, bit
// for bit: Equation 2 has exactly one implementation. (The name dates
// from when the manager also had a streaming Equation-2 arm that this
// test compared with the batch one; that arm is gone.) Noisy
// measurements keep the slowdowns moving, and a second profiling round
// covers the app-set reset.
func TestManagerStreamingFairness(t *testing.T) {
	for _, seed := range []int64{1, 42, 1234} {
		mgr, _ := snapSetup(t, seed, 0.02)
		periods := 0
		mgr.OnPeriod = func(r PeriodReport) {
			periods++
			want, err := fairness.Unfairness(r.Slowdowns)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if r.Unfairness != want { //copart:floateq bit-identity with the batch Equation 2 is the contract under test
				t.Fatalf("seed %d period %d (%v): reported %v, Equation 2 gives %v",
					seed, periods, r.Phase, r.Unfairness, want)
			}
		}
		for round := 0; round < 2; round++ {
			if err := mgr.Profile(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 300 && mgr.Phase() == PhaseExplore; i++ {
				if _, err := mgr.ExploreStep(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 10 && mgr.Phase() == PhaseIdle; i++ {
				if _, err := mgr.IdleStep(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if periods < 20 {
			t.Fatalf("seed %d: only %d periods observed", seed, periods)
		}
	}
}

// TestStreamingFairnessOffIsBatch pins that no Features gate changes how
// unfairness is computed: with every mechanism off, with each one off
// alone, and with all on, every period's reported unfairness is
// fairness.Unfairness over its slowdowns, bit for bit. Measurements are
// steady so the ScoreMemo arm, which skips re-measuring repeat states,
// is engaged when it is on. (The name dates from the removed
// StreamingFairness gate, whose off arm was the batch Equation 2.)
func TestStreamingFairnessOffIsBatch(t *testing.T) {
	variants := []struct {
		name string
		set  func(*Features)
	}{
		{"all-off", func(f *Features) { *f = Features{} }},
		{"all-on", func(*Features) {}},
		{"no-park", func(f *Features) { f.ParkOnBest = false }},
		{"no-pin", func(f *Features) { f.ProfilePinning = false }},
		{"no-hurt", func(f *Features) { f.HurtMemory = false }},
		{"no-cum", func(f *Features) { f.CumulativeGuard = false }},
		{"no-memo", func(f *Features) { f.ScoreMemo = false }},
	}
	for _, v := range variants {
		name := v.name
		mgr, _ := snapSetup(t, 7, 0)
		v.set(&mgr.Features)
		periods := 0
		mgr.OnPeriod = func(r PeriodReport) {
			periods++
			want, err := fairness.Unfairness(r.Slowdowns)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if r.Unfairness != want { //copart:floateq bit-identity with the batch Equation 2 is the contract under test
				t.Fatalf("%s period %d (%v): reported %v, Equation 2 gives %v",
					name, periods, r.Phase, r.Unfairness, want)
			}
		}
		if err := mgr.Profile(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 300 && mgr.Phase() == PhaseExplore; i++ {
			if _, err := mgr.ExploreStep(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10 && mgr.Phase() == PhaseIdle; i++ {
			if _, err := mgr.IdleStep(); err != nil {
				t.Fatal(err)
			}
		}
		if periods < 10 {
			t.Fatalf("%s: only %d periods observed", name, periods)
		}
	}
}

func TestManagerImprovesFairnessHLLC(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	eq := eqUnfairness(t, m)
	final := runToIdle(t, mgr)
	if final.Unfairness >= eq {
		t.Errorf("CoPart unfairness %.4f should beat EQ %.4f on H-LLC", final.Unfairness, eq)
	}
}

func TestManagerImprovesFairnessHBW(t *testing.T) {
	m, mgr := testSetup(t, workloads.HBW, 4)
	eq := eqUnfairness(t, m)
	final := runToIdle(t, mgr)
	if final.Unfairness >= eq {
		t.Errorf("CoPart unfairness %.4f should beat EQ %.4f on H-BW", final.Unfairness, eq)
	}
}

func TestManagerImprovesFairnessHBoth(t *testing.T) {
	m, mgr := testSetup(t, workloads.HBoth, 4)
	eq := eqUnfairness(t, m)
	final := runToIdle(t, mgr)
	if final.Unfairness >= eq {
		t.Errorf("CoPart unfairness %.4f should beat EQ %.4f on H-Both", final.Unfairness, eq)
	}
}

func TestManagerStateStaysValid(t *testing.T) {
	_, mgr := testSetup(t, workloads.HBoth, 4)
	if err := mgr.Profile(); err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	for i := 0; i < 100; i++ {
		done, err := mgr.ExploreStep()
		if err != nil {
			t.Fatal(err)
		}
		if err := mgr.State().Validate(cfg.LLCWays); err != nil {
			t.Fatalf("invalid state after step %d: %v", i, err)
		}
		if done {
			break
		}
	}
}

func TestManagerRecordsExploreTimes(t *testing.T) {
	_, mgr := testSetup(t, workloads.MBoth, 4)
	runToIdle(t, mgr)
	if len(mgr.ExploreTimes) == 0 {
		t.Fatal("no exploration timings recorded")
	}
	for _, d := range mgr.ExploreTimes {
		if d <= 0 || d > time.Second {
			t.Errorf("implausible exploration time %v", d)
		}
	}
}

func TestManagerIdleDetectsAppDeparture(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	runToIdle(t, mgr)
	// Steady idle period: no change detected.
	changed, err := mgr.IdleStep()
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Fatal("idle phase flagged a change on a steady system")
	}
	// An application departs: the next idle step must trigger
	// re-adaptation.
	if err := m.RemoveApp(m.Apps()[0]); err != nil {
		t.Fatal(err)
	}
	changed, err = mgr.IdleStep()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("idle phase missed an application departure")
	}
	if mgr.Phase() != PhaseProfile {
		t.Fatalf("phase=%v want profiling after change", mgr.Phase())
	}
	// Re-adaptation works with the reduced set.
	runToIdle(t, mgr)
}

func TestManagerEnvelopeChangeTriggersReadaptation(t *testing.T) {
	_, mgr := testSetup(t, workloads.HBoth, 4)
	runToIdle(t, mgr)
	if err := mgr.SetEnvelope(Envelope{LoWay: 0, Ways: 7}); err != nil {
		t.Fatal(err)
	}
	changed, err := mgr.IdleStep()
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("envelope change not detected")
	}
	final := runToIdle(t, mgr)
	total := 0
	for _, w := range final.State.Ways {
		total += w
	}
	if total > 7 {
		t.Errorf("state uses %d ways, envelope allows 7", total)
	}
}

func TestManagerSetEnvelopeNoopAndInvalid(t *testing.T) {
	_, mgr := testSetup(t, workloads.HLLC, 4)
	if err := mgr.SetEnvelope(Envelope{LoWay: 0, Ways: 11}); err != nil {
		t.Fatal(err)
	}
	if mgr.envChanged {
		t.Error("identical envelope should be a no-op")
	}
	if err := mgr.SetEnvelope(Envelope{LoWay: 9, Ways: 5}); err == nil {
		t.Error("out-of-range envelope should error")
	}
	if err := mgr.SetEnvelope(Envelope{LoWay: 0, Ways: 2}); err == nil {
		t.Error("envelope smaller than app count should error")
	}
}

func TestManagerRunLifecycle(t *testing.T) {
	m, mgr := testSetup(t, workloads.HLLC, 4)
	phases := map[Phase]bool{}
	mgr.OnPeriod = func(r PeriodReport) { phases[r.Phase] = true }
	if err := mgr.Run(90 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !phases[PhaseExplore] {
		t.Error("Run never explored")
	}
	if !phases[PhaseIdle] {
		t.Error("Run never reached idle")
	}
	if m.Now() < 90*time.Second {
		t.Errorf("virtual time %v did not advance to the deadline", m.Now())
	}
}

func TestNewManagerValidation(t *testing.T) {
	cfg := machine.DefaultConfig()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int]float64{}
	for l := 10; l <= 100; l += 10 {
		ref[l] = 1e8
	}
	r := rand.New(rand.NewSource(1))
	env := Envelope{LoWay: 0, Ways: cfg.LLCWays}

	if _, err := NewManager(m, DefaultParams(), ref, env, r); err == nil {
		t.Error("manager over an empty machine should error")
	}
	spec, err := workloads.ByName(cfg, "WN")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddApp(spec.Model); err != nil {
		t.Fatal(err)
	}
	if _, err := NewManager(m, DefaultParams(), ref, env, nil); err == nil {
		t.Error("nil rng should error")
	}
	bad := DefaultParams()
	bad.Theta = 0
	if _, err := NewManager(m, bad, ref, env, r); err == nil {
		t.Error("invalid params should error")
	}
	incompleteRef := map[int]float64{10: 1e8}
	if _, err := NewManager(m, DefaultParams(), incompleteRef, env, r); err == nil {
		t.Error("incomplete STREAM reference should error")
	}
	if _, err := NewManager(m, DefaultParams(), ref, Envelope{LoWay: 20, Ways: 2}, r); err == nil {
		t.Error("invalid envelope should error")
	}
	if _, err := NewManager(m, DefaultParams(), ref, env, r); err != nil {
		t.Errorf("valid manager rejected: %v", err)
	}
}

func TestPhaseString(t *testing.T) {
	for _, p := range []Phase{PhaseProfile, PhaseExplore, PhaseIdle} {
		if p.String() == "" {
			t.Errorf("empty name for phase %d", int(p))
		}
	}
	if Phase(7).String() == "" {
		t.Error("unknown phase should render")
	}
}

func TestExploreStepWrongPhase(t *testing.T) {
	_, mgr := testSetup(t, workloads.HLLC, 4)
	if _, err := mgr.ExploreStep(); err == nil {
		t.Error("ExploreStep before profiling should error")
	}
	if _, err := mgr.IdleStep(); err == nil {
		t.Error("IdleStep before profiling should error")
	}
}
