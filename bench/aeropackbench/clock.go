package main

import "time"

// The benchmark's host changes speed from minute to minute.  On the
// shared two-vCPU machine it was written on, every workload ran 15–30 %
// slower or faster at once from one run to the next, which is wider than
// any bound a regression check could use.  That drift follows the speed
// of a fixed loop of dependent 64-bit multiply-adds timed while
// aeropackd is idle: across ten runs, the loop's time and cpu_ms_per_req
// correlated at 0.8–0.9 on board-linear and cosee-cold.  So the times of
// the end-to-end metrics are reported at a reference speed of the loop:
// a time is scaled by refStepNs / the measured step, a rate by its
// inverse.  A change to aeropack cannot change the loop, so the scaling
// removes the host's drift and keeps everything the program does.

const (
	clockSteps = 1 << 20 // loop steps per timing, ~1.5 ms
	clockReps  = 48      // timings per reading
	// refStepNs is the reference speed: ns per loop step.  It is about
	// what the machine the benchmark was written on measured, so scaled
	// values read close to the raw ones there.
	refStepNs = 1.4
)

// clockSink keeps the loop's result live.
var clockSink uint64

// clockStepNs times the loop clockReps times, 2 ms apart, and returns
// the lower quartile of its ns per step: a timing that another thread
// interrupted only reads slower, so the low side is the host's speed.
func clockStepNs() float64 {
	xs := make([]float64, 0, clockReps)
	for i := 0; i < clockReps; i++ {
		h := clockSink | 1
		t := time.Now()
		for j := 0; j < clockSteps; j++ {
			h = h*6364136223846793005 + 1442695040888963407
		}
		xs = append(xs, float64(time.Since(t).Nanoseconds())/clockSteps)
		clockSink = h
		time.Sleep(2 * time.Millisecond)
	}
	return quantile(xs, 0.25)
}
