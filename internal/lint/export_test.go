package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func exportFixture() []Finding {
	return []Finding{{
		Pos:  token.Position{Filename: "internal/thermal/solve.go", Line: 42, Column: 7},
		Rule: "unitsafety",
		Msg:  "inline unit-conversion literal 273.15",
		Hint: "use units.CToK/units.KToC (or units.ZeroCelsius for the constant itself)",
		Fix: &Fix{
			Desc: "replace the ±273.15 arithmetic with the units conversion helper",
			Edits: []TextEdit{{
				File: "internal/thermal/solve.go", Offset: 980, End: 990, New: "units.CToK(tC)",
			}},
		},
	}, {
		Pos:  token.Position{Filename: "internal/core/flow.go", Line: 166, Column: 13},
		Rule: "lockheld",
		Msg:  "call to thermal.linSolve while mu is held reaches solver entry CGOpt via thermal.linSolve → robust.Chain.Solve",
		Hint: "release the lock before the call, or move the blocking work out of the critical section",
		Related: []Related{{
			Pos: token.Position{Filename: "internal/thermal/solve.go", Line: 335, Column: 20},
			Msg: "solver entry CGOpt happens here",
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
			Fix *struct {
				Desc  string `json:"desc"`
				Edits []struct {
					File   string `json:"file"`
					Offset int    `json:"offset"`
					End    int    `json:"end"`
					New    string `json:"new"`
				} `json:"edits"`
			} `json:"fix"`
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
	if f.Fix == nil || f.Fix.Desc == "" || len(f.Fix.Edits) != 1 {
		t.Fatalf("fix not serialized: %+v", f.Fix)
	}
	if e := f.Fix.Edits[0]; e.File != "internal/thermal/solve.go" || e.Offset != 980 ||
		e.End != 990 || e.New != "units.CToK(tC)" {
		t.Errorf("fix edit fields off: %+v", e)
	}
	ipa := rep.Findings[1]
	if len(ipa.Related) != 1 {
		t.Fatalf("interprocedural finding related = %d, want 1", len(ipa.Related))
	}
	r := ipa.Related[0]
	if r.File != "internal/thermal/solve.go" || r.Line != 335 || r.Column != 20 || r.Msg == "" {
		t.Errorf("related fields off: %+v", r)
	}
}

// TestWriteSARIFShape pins the SARIF 2.1.0 document shape by walking the
// emitted JSON generically — a renamed or dropped field fails here even
// if the Go structs stay internally consistent.
func TestWriteSARIFShape(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, Rules(), exportFixture()); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if got := doc["$schema"]; got != "https://json.schemastore.org/sarif-2.1.0.json" {
		t.Errorf("$schema = %v", got)
	}
	if got := doc["version"]; got != "2.1.0" {
		t.Errorf("version = %v, want 2.1.0", got)
	}
	runs, ok := doc["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs = %v, want exactly one run", doc["runs"])
	}
	run := runs[0].(map[string]any)

	driver := run["tool"].(map[string]any)["driver"].(map[string]any)
	if driver["name"] != "aeropacklint" {
		t.Errorf("driver name = %v", driver["name"])
	}
	ruleTable := driver["rules"].([]any)
	if len(ruleTable) != len(Rules()) {
		t.Errorf("driver rule table has %d entries, want all %d registered rules",
			len(ruleTable), len(Rules()))
	}
	ruleIndex := -1
	for i, r := range ruleTable {
		rm := r.(map[string]any)
		if rm["id"] == "" || rm["shortDescription"].(map[string]any)["text"] == "" {
			t.Errorf("rule table entry %d missing id or shortDescription.text", i)
		}
		if rm["id"] == "unitsafety" {
			ruleIndex = i
		}
	}

	results := run["results"].([]any)
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	res := results[0].(map[string]any)
	if res["ruleId"] != "unitsafety" {
		t.Errorf("ruleId = %v", res["ruleId"])
	}
	if int(res["ruleIndex"].(float64)) != ruleIndex {
		t.Errorf("ruleIndex = %v, want %d (position in the driver table)", res["ruleIndex"], ruleIndex)
	}
	if res["level"] != "error" {
		t.Errorf("level = %v", res["level"])
	}
	msg := res["message"].(map[string]any)["text"].(string)
	if !strings.Contains(msg, "273.15") || !strings.Contains(msg, "units.CToK") {
		t.Errorf("message.text should carry msg and hint, got %q", msg)
	}
	loc := res["locations"].([]any)[0].(map[string]any)["physicalLocation"].(map[string]any)
	if uri := loc["artifactLocation"].(map[string]any)["uri"]; uri != "internal/thermal/solve.go" {
		t.Errorf("artifactLocation.uri = %v", uri)
	}
	region := loc["region"].(map[string]any)
	if int(region["startLine"].(float64)) != 42 || int(region["startColumn"].(float64)) != 7 {
		t.Errorf("region = %v, want startLine 42 startColumn 7", region)
	}
	if _, present := res["relatedLocations"]; present {
		t.Error("finding without related locations emitted relatedLocations")
	}

	// The fix rides along as a SARIF fixes entry with charOffset /
	// charLength replacements.
	fixes, ok := res["fixes"].([]any)
	if !ok || len(fixes) != 1 {
		t.Fatalf("fixes = %v, want exactly one", res["fixes"])
	}
	fx := fixes[0].(map[string]any)
	if txt := fx["description"].(map[string]any)["text"].(string); txt == "" {
		t.Error("fix description.text empty")
	}
	ac := fx["artifactChanges"].([]any)[0].(map[string]any)
	if uri := ac["artifactLocation"].(map[string]any)["uri"]; uri != "internal/thermal/solve.go" {
		t.Errorf("fix artifactLocation.uri = %v", uri)
	}
	repl := ac["replacements"].([]any)[0].(map[string]any)
	dr := repl["deletedRegion"].(map[string]any)
	if int(dr["charOffset"].(float64)) != 980 || int(dr["charLength"].(float64)) != 10 {
		t.Errorf("deletedRegion = %v, want charOffset 980 charLength 10", dr)
	}
	if txt := repl["insertedContent"].(map[string]any)["text"]; txt != "units.CToK(tC)" {
		t.Errorf("insertedContent.text = %v", txt)
	}
	if _, present := results[1].(map[string]any)["fixes"]; present {
		t.Error("finding without a fix emitted fixes")
	}

	// The interprocedural finding carries its secondary position as a
	// SARIF relatedLocation with both a physicalLocation and a message.
	ipa := results[1].(map[string]any)
	rel, ok := ipa["relatedLocations"].([]any)
	if !ok || len(rel) != 1 {
		t.Fatalf("relatedLocations = %v, want exactly one", ipa["relatedLocations"])
	}
	rl := rel[0].(map[string]any)
	rloc := rl["physicalLocation"].(map[string]any)
	if uri := rloc["artifactLocation"].(map[string]any)["uri"]; uri != "internal/thermal/solve.go" {
		t.Errorf("relatedLocation uri = %v", uri)
	}
	rregion := rloc["region"].(map[string]any)
	if int(rregion["startLine"].(float64)) != 335 {
		t.Errorf("relatedLocation startLine = %v, want 335", rregion["startLine"])
	}
	if txt := rl["message"].(map[string]any)["text"].(string); !strings.Contains(txt, "solver entry CGOpt") {
		t.Errorf("relatedLocation message = %q", txt)
	}
}
