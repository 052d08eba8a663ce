package envtest

import (
	"context"
	"errors"
	"testing"

	"aeropack/internal/cosee"
	"aeropack/internal/robust"
)

// parallelArticle builds a qualification article whose thermal hook is
// safe for concurrent calls: the cosee configuration is copied per
// invocation because Config.Solve mutates its receiver via Defaults.
func parallelArticle(name string) *Article {
	base := cosee.Config{UseLHP: true}
	a := sebArticle()
	a.Name = name
	a.DeltaTAt = func(p float64) (float64, error) {
		cfg := base
		pt, err := cfg.Solve(p)
		if err != nil {
			return 0, err
		}
		return pt.DeltaTK, nil
	}
	return a
}

// checkWorkerTable runs a campaign at workers 1, 2, 4 and 0, with and
// without keep-going, and requires every run to equal want, the tests
// called one by one in the paper's order.
func checkWorkerTable(t *testing.T, a *Article, want []Result, run func(context.Context, *Article, robust.Options) ([]Result, []*robust.PointError, error)) {
	t.Helper()
	for _, keepGoing := range []bool{false, true} {
		for _, w := range []int{1, 2, 4, 0} {
			got, errs, err := run(context.Background(), a, robust.Options{Workers: w, KeepGoing: keepGoing})
			if err != nil || errs != nil {
				t.Fatalf("workers=%d keep-going=%t: errs %v, err %v", w, keepGoing, errs, err)
			}
			if len(got) != len(want) {
				t.Fatalf("workers=%d keep-going=%t: %d results, want %d", w, keepGoing, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d keep-going=%t: result %d = %+v, want %+v", w, keepGoing, i, got[i], want[i])
				}
			}
		}
	}
}

// serially calls each test on a in order.
func serially(t *testing.T, a *Article, tests ...func(*Article) (Result, error)) []Result {
	t.Helper()
	var out []Result
	for _, test := range tests {
		r, err := test(a)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	c := DefaultCampaign()
	a := parallelArticle("seb-parallel")
	want := serially(t, a, c.RunAcceleration, c.RunVibration, c.RunClimatic, c.RunThermalShock)
	checkWorkerTable(t, a, want, c.Run)
	got, err := c.RunAllParallel(a, 2)
	if err != nil || len(got) != len(want) || got[3] != want[3] {
		t.Fatalf("RunAllParallel = %+v, %v; want %+v", got, err, want)
	}
}

func TestExtendedRunAllParallelMatchesSerial(t *testing.T) {
	e := DefaultExtended()
	a := parallelArticle("seb-extended-parallel")
	want := serially(t, a, e.RunAcceleration, e.RunVibration, e.RunClimatic, e.RunThermalShock,
		e.RunShockPulse, e.RunSineSweep)
	checkWorkerTable(t, a, want, e.Run)
	got, err := e.RunAllParallel(a, 2)
	if err != nil || len(got) != len(want) || got[5] != want[5] {
		t.Fatalf("RunAllParallel = %+v, %v; want %+v", got, err, want)
	}
}

// TestRunKeepGoingCapturesClimatic: with keep-going, an article whose
// thermal model fails loses exactly the climatic test — the one test
// that calls DeltaTAt — as a PointError and a failed placeholder, and
// every other result is bitwise equal to the clean run's.  Without
// keep-going the failure aborts the campaign.
func TestRunKeepGoingCapturesClimatic(t *testing.T) {
	errThermal := errors.New("thermal model unavailable")
	for _, c := range []struct {
		name string
		run  func(context.Context, *Article, robust.Options) ([]Result, []*robust.PointError, error)
	}{
		{"campaign", DefaultCampaign().Run},
		{"extended", DefaultExtended().Run},
	} {
		t.Run(c.name, func(t *testing.T) {
			clean, _, err := c.run(context.Background(), parallelArticle("clean"), robust.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			broken := parallelArticle("clean")
			broken.DeltaTAt = func(float64) (float64, error) { return 0, errThermal }
			if _, _, err := c.run(context.Background(), broken, robust.Options{Workers: 2}); !errors.Is(err, errThermal) {
				t.Errorf("without keep-going: err = %v, want the thermal failure", err)
			}
			got, errs, err := c.run(context.Background(), broken, robust.Options{Workers: 2, KeepGoing: true})
			if err != nil {
				t.Fatal(err)
			}
			const climatic = 2
			if len(errs) != 1 || errs[0].Index != climatic || errs[0].Label != "climatic" || !errors.Is(errs[0], errThermal) {
				t.Fatalf("point errors = %v, want exactly the climatic test's", errs)
			}
			if len(got) != len(clean) {
				t.Fatalf("%d results, want %d", len(got), len(clean))
			}
			for i := range clean {
				if i == climatic {
					if got[i].Pass || got[i].Test != "climatic" {
						t.Errorf("climatic placeholder = %+v, want a failed \"climatic\" result", got[i])
					}
					continue
				}
				if got[i] != clean[i] {
					t.Errorf("result %d = %+v, want the clean run's %+v", i, got[i], clean[i])
				}
			}
		})
	}
}
