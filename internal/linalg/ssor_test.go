package linalg

import (
	"sync"
	"testing"
)

// Concurrent Apply on one shared SSORPrec must be race-free and give
// each caller a correct result.  Before the scratch buffer became
// per-call claimable, two sweep workers sharing a preconditioner wrote
// interleaved garbage into one tmp slice — this test (under the -race
// run in verify.sh) is the regression pin.
func TestSSORPrecConcurrentApply(t *testing.T) {
	a, _ := randomSPD(7, 80, 0.08)
	p := NewSSORPrec(a, 1.2)
	n := a.Rows
	r := make([]float64, n)
	for i := range r {
		r[i] = float64(i%11) - 5
	}
	want := make([]float64, n)
	p.Apply(r, want)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			z := make([]float64, n)
			for it := 0; it < 50; it++ {
				p.Apply(r, z)
				for i := range z {
					if z[i] != want[i] {
						t.Errorf("concurrent Apply diverged at %d: %v != %v", i, z[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
