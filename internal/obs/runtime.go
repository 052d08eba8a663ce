package obs

import (
	"runtime"
	"sync"
	"time"
)

// Sampler periodically publishes Go runtime health into a metrics
// Registry so a long-running campaign can be watched live (the ops
// endpoint's /metrics route scrapes the same registry).  Gauges
// published every tick:
//
//	runtime_goroutines              goroutine count
//	runtime_heap_alloc_bytes        live heap bytes
//	runtime_heap_objects            live heap objects
//	runtime_sys_bytes               total bytes obtained from the OS
//	runtime_gc_cycles               completed GC cycles
//	runtime_gc_pause_total_seconds  cumulative stop-the-world pause
//	runtime_gc_last_pause_seconds   most recent GC pause
//	runtime_samples_total           counter, ticks taken
//
// The sampler owns one goroutine; Stop cancels and joins it, so the
// goroutine never outlives the run that started it (the goroleak
// contract for library goroutines).
type Sampler struct {
	reg      *Registry
	interval time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartSampler begins sampling the runtime into reg every interval
// (<= 0 selects one second).  It samples once synchronously before
// returning, so a registry is never scraped empty, then ticks in a
// background goroutine until Stop.  A nil registry returns a nil
// sampler whose Stop is a no-op.
func StartSampler(reg *Registry, interval time.Duration) *Sampler {
	if reg == nil {
		return nil
	}
	if interval <= 0 {
		interval = time.Second
	}
	s := &Sampler{reg: reg, interval: interval, stop: make(chan struct{})}
	for name, help := range map[string]string{
		"runtime_goroutines":             "Current goroutine count.",
		"runtime_heap_alloc_bytes":       "Live heap bytes (MemStats.HeapAlloc).",
		"runtime_heap_objects":           "Live heap object count.",
		"runtime_sys_bytes":              "Total bytes obtained from the OS.",
		"runtime_gc_cycles":              "Completed GC cycles.",
		"runtime_gc_pause_total_seconds": "Cumulative stop-the-world GC pause.",
		"runtime_gc_last_pause_seconds":  "Most recent GC pause duration.",
		"runtime_samples_total":          "Runtime sampler ticks taken.",
	} {
		reg.SetHelp(name, help)
	}
	s.sample()
	s.wg.Add(1)
	//lint:allow goroleak joined by wg.Wait in Sampler.Stop
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

// Stop cancels the sampling goroutine and blocks until it has exited.
// Safe to call more than once and on a nil sampler.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.wg.Wait()
}

// sample takes one runtime reading.  ReadMemStats briefly stops the
// world, which is why the cadence is a knob: the one-second default
// costs microseconds per tick, invisible next to a steady solve.
func (s *Sampler) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	s.reg.Gauge("runtime_goroutines").Set(float64(runtime.NumGoroutine()))
	s.reg.Gauge("runtime_heap_alloc_bytes").Set(float64(m.HeapAlloc))
	s.reg.Gauge("runtime_heap_objects").Set(float64(m.HeapObjects))
	s.reg.Gauge("runtime_sys_bytes").Set(float64(m.Sys))
	s.reg.Gauge("runtime_gc_cycles").Set(float64(m.NumGC))
	s.reg.Gauge("runtime_gc_pause_total_seconds").Set(float64(m.PauseTotalNs) / 1e9)
	if m.NumGC > 0 {
		last := m.PauseNs[(m.NumGC+255)%256]
		s.reg.Gauge("runtime_gc_last_pause_seconds").Set(float64(last) / 1e9)
	}
	s.reg.Counter("runtime_samples_total").Inc()
}
