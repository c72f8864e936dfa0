package main

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxLateness bounds the generator's own lateness p99: beyond it the
// harness, not the daemon, set the schedule, and the run is refused.
// Latencies are timed from due times, so lateness below it does not
// hide any wait; it only delays a share of the offered load. Fleet-read
// runs show 15–50 ms here on two CPUs, when a 10k-record sweep and page
// encodes hold both processors.
const maxLateness = 100 * time.Millisecond

// maxOutstanding caps operations in flight from one open loop, so a
// stalled daemon cannot grow the harness without bound. An arrival over
// the cap is not sent and counts as a miss.
const maxOutstanding = 4096

// openLoop fires op at rate×dur arrivals spread uniformly at random over
// dur — a Poisson process conditioned on its count, so every run offers
// exactly the same number of operations — each in its own goroutine, and
// waits for every fired op to finish. Arrival times and each arrival's
// input (draw) come only from rng on the launcher's goroutine, so one
// seed gives one schedule of inputs. op receives the arrival's due time
// and times itself from it; the launcher's own lateness is recorded in
// late. It returns the number of arrivals and of arrivals dropped at the
// outstanding cap.
func openLoop[T any](rng *rand.Rand, rate float64, dur time.Duration, late *hist, draw func() T, op func(due time.Time, in T)) (arrivals, dropped int) {
	offsets := make([]time.Duration, int(rate*dur.Seconds()))
	for i := range offsets {
		offsets[i] = time.Duration(rng.Int63n(int64(dur)))
	}
	slices.Sort(offsets)
	var wg sync.WaitGroup
	sem := make(chan struct{}, maxOutstanding)
	start := time.Now()
	for _, off := range offsets {
		next := start.Add(off)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		late.Observe(time.Since(next))
		in := draw()
		arrivals++
		select {
		case sem <- struct{}{}:
		default:
			dropped++
			continue
		}
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			op(due, in)
		}(next)
	}
	wg.Wait()
	return arrivals, dropped
}

// fixedRate fires op every period for dur on the calling goroutine's
// schedule, each in its own goroutine, timed from its due time like
// openLoop. It is the steady control stream beside the open loops.
func fixedRate(period, dur time.Duration, op func(due time.Time)) {
	var wg sync.WaitGroup
	start := time.Now()
	for due := start.Add(period); due.Sub(start) < dur; due = due.Add(period) {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(due time.Time) {
			defer wg.Done()
			op(due)
		}(due)
	}
	wg.Wait()
}

// capSlot is the slice of a closed loop whose completions make one
// throughput sample.
const capSlot = 250 * time.Millisecond

// closedLoop runs workers goroutines that each repeat op back to back
// for dur, and returns the median over capSlot slices of the completion
// rate in ops/s: saturated throughput at a fixed in-flight count, robust
// to the odd slice a background sweep slowed down.
func closedLoop(workers int, dur time.Duration, op func(worker int) error) (rate float64, err error) {
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	slots := make([]atomic.Int64, int(dur/capSlot))
	start := time.Now()
	deadline := start.Add(time.Duration(len(slots)) * capSlot)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := op(w); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if i := int(time.Since(start) / capSlot); i < len(slots) {
					slots[i].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	rates := make([]float64, len(slots))
	for i := range slots {
		rates[i] = float64(slots[i].Load()) / capSlot.Seconds()
	}
	med, _ := medianSpread(rates)
	return med, firstErr
}

// cpuTime is the process's user and system CPU time so far: daemon,
// generator and the kernel's loopback work together.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// zipf draws pool-key indices with a skewed popularity.
func newZipf(rng *rand.Rand, keys int) *rand.Zipf {
	return rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
}
