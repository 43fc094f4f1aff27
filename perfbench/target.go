package main

import (
	"time"

	"repro/internal/core"
	"repro/internal/machine"
)

// timedTarget is the core.Target the traced daemon run hands the
// manager: it forwards to the node's *machine.Machine and times each
// counter read, allocation write and step. Call time is charged to the
// span the controller is in (cur) as aggregated inner time, and steps
// are also kept one by one so the run can show how their cost drifts.
//
// It forwards the optional methods the manager probes for, so the
// manager takes the same paths over it as over the bare machine, which
// the run's digest check confirms.
type timedTarget struct {
	m   *machine.Machine
	tr  *tracer
	cur spanID

	readNs, readCalls int64
	setNs, setCalls   int64
	steps             []float64 // ns per Step call, in call order
}

var _ core.Target = (*timedTarget)(nil)

func (t *timedTarget) Apps() []string                       { return t.m.Apps() }
func (t *timedTarget) AppsInto(dst []string) []string       { return t.m.AppsInto(dst) }
func (t *timedTarget) Config() machine.Config               { return t.m.Config() }
func (t *timedTarget) Now() time.Duration                   { return t.m.Now() }
func (t *timedTarget) SteadyMeasurement() bool              { return t.m.SteadyMeasurement() }
func (t *timedTarget) SolveCacheDetail() machine.CacheStats { return t.m.SolveCacheDetail() }

func (t *timedTarget) ReadCounters(name string) (machine.Counters, error) {
	start := time.Now()
	c, err := t.m.ReadCounters(name)
	d := time.Since(start)
	t.readNs += int64(d)
	t.readCalls++
	t.tr.addInner(t.cur, d)
	return c, err
}

func (t *timedTarget) SetAllocation(name string, a machine.Alloc) error {
	start := time.Now()
	err := t.m.SetAllocation(name, a)
	d := time.Since(start)
	t.setNs += int64(d)
	t.setCalls++
	t.tr.addInner(t.cur, d)
	return err
}

func (t *timedTarget) Step(dt time.Duration) error {
	start := time.Now()
	err := t.m.Step(dt)
	d := time.Since(start)
	t.steps = append(t.steps, float64(d))
	t.tr.addInner(t.cur, d)
	return err
}
