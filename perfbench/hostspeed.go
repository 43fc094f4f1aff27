package main

import (
	"fmt"
	"strconv"
	"time"
)

// The machine a run lands on does not keep one speed. On a shared host,
// what other tenants run moves the time of the same CPU-bound work by
// 10–20 % over tens of seconds, and a single core's speed flips between
// a fast and a slow mode many times a second. Every run therefore also
// times a fixed reference kernel — single-goroutine Go that calls
// nothing of the repository, so no program change can move it — right
// before every timed operation, and reports every workload's work_s at
// the reference speed:
//
//	work_s = median seconds per unit of work × refNominal ÷ mean kernel seconds
//
// A change to the program moves that figure exactly as much as the raw
// median; a change in the host's speed moves the work and the kernel
// alike and cancels (README.md has the runs that show it). The raw
// medians are printed beside it.

// refNominal is the kernel's mean time on the reference machine
// (README.md), so that scaled figures read as seconds there.
const refNominal = 8.2e-3 // seconds

// refReps is how many times timeRef runs the kernel. One kernel time
// catches the core in one of its modes, so the scale uses the mean of
// them all.
const refReps = 3

// refKeys are the kernel's map keys, shaped like the application and
// group names the controller keys its tables by.
var refKeys = func() []string {
	keys := make([]string, 512)
	for i := range keys {
		keys[i] = "app-" + strconv.Itoa(i)
	}
	return keys
}()

// refSink keeps the kernel's result alive.
var refSink float64

// refKernel runs the reference computation once — string-keyed map
// updates and floating-point arithmetic, the mix the workloads' hot
// loops are made of — and returns its wall seconds.
func refKernel() float64 {
	start := time.Now()
	m := make(map[string]float64, len(refKeys))
	x := 1.0
	for it := 0; it < 600; it++ {
		for i, k := range refKeys {
			x = x*0.9999999 + float64(i^it)*1e-3
			m[k] += x
		}
	}
	refSink += m[refKeys[len(refKeys)/3]]
	return time.Since(start).Seconds()
}

// timeRef times the reference kernel refReps times. It runs after
// set-up, on a collected heap, right before a timed operation.
func (r *run) timeRef() {
	for i := 0; i < refReps; i++ {
		r.refs = append(r.refs, refKernel())
	}
}

// refNote labels a printed figure scaled by atRef.
var refNote = fmt.Sprintf("median at the reference speed: raw x %g ms / host_ref_ms", refNominal*1e3)

// atRef scales a measured time to the reference speed.
func (r *run) atRef(t float64) float64 {
	return t * refNominal / mean(r.refs)
}
