package thermal

import (
	"testing"

	"aeropack/internal/materials"
	"aeropack/internal/mesh"
)

// parallelTestModel builds a multi-slab heated plate with mixed BCs,
// including radiation so the Picard outer loop runs more than once.
func parallelTestModel(t *testing.T) *Model {
	t.Helper()
	g, err := mesh.Uniform(12, 10, 6, 0.12, 0.1, 0.012)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModel(g, []materials.Material{materials.Al6061})
	if err != nil {
		t.Fatal(err)
	}
	m.SetFaceBC(mesh.ZMin, BC{Kind: Convection, T: 300, H: 25})
	m.SetFaceBC(mesh.ZMax, BC{Kind: ConvectionRadiation, T: 290, H: 8, Emiss: 0.8})
	m.SetFaceBC(mesh.XMin, BC{Kind: FixedT, T: 310})
	if m.AddVolumeSource(0.03, 0.08, 0.02, 0.07, 0, 0.012, 18) == 0 {
		t.Fatal("source missed mesh")
	}
	return m
}

func TestSolveSteadyParallelMatchesSerial(t *testing.T) {
	m := parallelTestModel(t)
	serial, err := m.SolveSteady(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 2, 4} {
		par, err := m.SolveSteady(&SolveOptions{Parallel: true, Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if par.OuterIterations != serial.OuterIterations {
			t.Errorf("workers=%d: outer iterations %d vs serial %d",
				w, par.OuterIterations, serial.OuterIterations)
		}
		for i := range serial.T {
			if par.T[i] != serial.T[i] {
				t.Fatalf("workers=%d: cell %d: %v vs serial %v (must be bitwise identical)",
					w, i, par.T[i], serial.T[i])
			}
		}
	}
}

func TestSolveTransientParallelMatchesSerial(t *testing.T) {
	m := parallelTestModel(t)
	opts := TransientOptions{Dt: 2, Steps: 5}
	serial, err := m.SolveTransient(300, &opts)
	if err != nil {
		t.Fatal(err)
	}
	popts := TransientOptions{Dt: 2, Steps: 5}
	popts.Parallel = true
	popts.Workers = 4
	par, err := m.SolveTransient(300, &popts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial.T {
		if par.T[i] != serial.T[i] {
			t.Fatalf("cell %d: %v vs serial %v (must be bitwise identical)", i, par.T[i], serial.T[i])
		}
	}
}
