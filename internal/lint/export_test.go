package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

func exportFixture() []Finding {
	return []Finding{{
		Pos:  token.Position{Filename: "internal/thermal/solve.go", Line: 42, Column: 7},
		Rule: "unitsafety",
		Msg:  "inline unit-conversion literal 273.15",
		Hint: "use units.CToK/units.KToC (or units.ZeroCelsius for the constant itself)",
	}, {
		Pos:  token.Position{Filename: "internal/core/flow.go", Line: 166, Column: 13},
		Rule: "errdrop",
		Msg:  "error compared to sentinel linalg.ErrStopped with ==; the sentinel is wrapped with %w in aeropack/internal/linalg, so == can never match",
		Hint: "use errors.Is; wrapped errors never match ==",
		Related: []Related{{
			Pos: token.Position{Filename: "internal/linalg/iterative.go", Line: 241, Column: 21},
			Msg: "linalg.ErrStopped is wrapped with %w here",
		}},
	}}
}

// TestWriteJSONFindings pins the aeropacklint/v1 envelope.
func TestWriteJSONFindings(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONFindings(&buf, exportFixture()); err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Version  string `json:"version"`
		Findings []struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Column  int    `json:"column"`
			Rule    string `json:"rule"`
			Msg     string `json:"msg"`
			Hint    string `json:"hint"`
			Related []struct {
				File   string `json:"file"`
				Line   int    `json:"line"`
				Column int    `json:"column"`
				Msg    string `json:"msg"`
			} `json:"related"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Version != "aeropacklint/v1" {
		t.Errorf("version = %q, want aeropacklint/v1", rep.Version)
	}
	if len(rep.Findings) != 2 {
		t.Fatalf("findings = %d, want 2", len(rep.Findings))
	}
	f := rep.Findings[0]
	if f.File != "internal/thermal/solve.go" || f.Line != 42 || f.Column != 7 ||
		f.Rule != "unitsafety" || f.Msg == "" || f.Hint == "" {
		t.Errorf("finding fields off: %+v", f)
	}
	if len(f.Related) != 0 {
		t.Errorf("finding without related locations serialized %d of them", len(f.Related))
	}
	wrapped := rep.Findings[1]
	if len(wrapped.Related) != 1 {
		t.Fatalf("sentinel-wrap finding related = %d, want 1", len(wrapped.Related))
	}
	r := wrapped.Related[0]
	if r.File != "internal/linalg/iterative.go" || r.Line != 241 || r.Column != 21 || r.Msg == "" {
		t.Errorf("related fields off: %+v", r)
	}
}
