package obs

import (
	"runtime"
	"testing"
	"time"
)

func TestSamplerPublishesGauges(t *testing.T) {
	reg := NewRegistry()
	s := StartSampler(reg, time.Hour) // synchronous first sample; ticker never fires
	defer s.Stop()
	snap := reg.Snapshot()
	wantGauges := []string{
		"runtime_goroutines",
		"runtime_heap_alloc_bytes",
		"runtime_heap_objects",
		"runtime_sys_bytes",
		"runtime_gc_cycles",
		"runtime_gc_pause_total_seconds",
	}
	for _, name := range wantGauges {
		v, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %q not published", name)
		}
		if v < 0 {
			t.Fatalf("gauge %q = %g, want >= 0", name, v)
		}
	}
	if snap.Gauges["runtime_goroutines"] < 1 {
		t.Fatalf("runtime_goroutines = %g, want >= 1", snap.Gauges["runtime_goroutines"])
	}
	if snap.Gauges["runtime_heap_alloc_bytes"] <= 0 {
		t.Fatalf("runtime_heap_alloc_bytes = %g, want > 0", snap.Gauges["runtime_heap_alloc_bytes"])
	}
	if snap.Counters["runtime_samples_total"] < 1 {
		t.Fatalf("runtime_samples_total = %d, want >= 1", snap.Counters["runtime_samples_total"])
	}
}

func TestSamplerTicks(t *testing.T) {
	reg := NewRegistry()
	s := StartSampler(reg, time.Millisecond)
	defer s.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Snapshot().Counters["runtime_samples_total"] >= 3 {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("sampler never accumulated 3 ticks within 5s")
}

func TestSamplerStopIdempotentAndNilSafe(t *testing.T) {
	var nilS *Sampler
	nilS.Stop() // must not panic

	if s := StartSampler(nil, time.Second); s != nil {
		t.Fatal("StartSampler(nil, ...) should return nil")
	}

	s := StartSampler(NewRegistry(), time.Millisecond)
	s.Stop()
	s.Stop() // second Stop must not panic or deadlock
}

// TestSamplerStopJoins checks Stop's join: after Stop, the goroutine
// count is back where it was before StartSampler within a second.
func TestSamplerStopJoins(t *testing.T) {
	base := runtime.NumGoroutine()
	s := StartSampler(NewRegistry(), time.Millisecond)
	time.Sleep(5 * time.Millisecond) // let the ticker fire a few times
	s.Stop()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines a second after Stop, %d before StartSampler", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
