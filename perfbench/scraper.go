package main

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"
)

// clock is the scraper's time source, real in the benchmark and fake in
// its tests.
type clock interface {
	Now() time.Time
	// SleepUntil waits until t or until stop closes; it reports false
	// when stopped.
	SleepUntil(t time.Time, stop <-chan struct{}) bool
}

// realClock waits with a timer while the due time is far off and
// yields the processor in a loop for the last stretch. The stretch is
// short, so the scraper sleeps through most of each interval instead
// of holding a processor beside the node it measures; the price is that
// a timer often wakes it late (Go's timers can fire up to a millisecond
// late on Linux), and that lateness is charged to the scrape.
type realClock struct{}

// spinWindow is how close to the due time the wait stops sleeping: a
// fifth of the 1 ms scrape interval.
const spinWindow = 200 * time.Microsecond

func (realClock) Now() time.Time { return time.Now() }

func (realClock) SleepUntil(t time.Time, stop <-chan struct{}) bool {
	if d := time.Until(t) - spinWindow; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-stop:
			timer.Stop()
			return false
		case <-timer.C:
		}
	}
	for time.Now().Before(t) {
		select {
		case <-stop:
			return false
		default:
			runtime.Gosched()
		}
	}
	select {
	case <-stop:
		return false
	default:
		return true
	}
}

// scraper is an open-loop reader: request i is due at start + i·every
// whatever happened to the ones before it, and goes out over a single
// connection, so a slow response delays the requests queued behind it.
// Every request is timed from its due time, which charges that queueing
// to the requests that suffered it.
type scraper struct {
	clk   clock
	every time.Duration
	paths []string
	get   func(path string) (status int, err error)
}

// scrapeResult holds per-request figures in nanoseconds.
type scrapeResult struct {
	attempted, failed int
	lat               []float64 // due time → response read
	late              []float64 // due time → request sent
}

// run scrapes until stop closes, round-robining the paths. A request
// that errors or answers outside 2xx counts as failed.
func (s *scraper) run(stop <-chan struct{}) scrapeResult {
	var res scrapeResult
	start := s.clk.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * s.every)
		if !s.clk.SleepUntil(due, stop) {
			return res
		}
		sent := s.clk.Now()
		status, err := s.get(s.paths[i%len(s.paths)])
		done := s.clk.Now()
		res.attempted++
		if err != nil || status < 200 || status > 299 {
			res.failed++
		}
		res.lat = append(res.lat, float64(done.Sub(due)))
		res.late = append(res.late, float64(sent.Sub(due)))
	}
}

// httpGetter returns a get function for the scraper that reads whole
// responses from base over one kept-alive connection, and the client's
// cleanup.
func httpGetter(base string) (func(path string) (int, error), func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	get := func(path string) (int, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return 0, fmt.Errorf("reading %s: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	return get, tr.CloseIdleConnections
}
