// The machine-readable finding form, shared by the JSON export and the
// result cache.  Positions are module-root-relative and slash-separated,
// so the emitted paths are stable across checkouts.
package lint

import (
	"encoding/json"
	"go/token"
	"io"
	"path/filepath"
)

// jsonReport is the aeropacklint/v1 JSON envelope.
type jsonReport struct {
	Version  string        `json:"version"`
	Findings []jsonFinding `json:"findings"`
}

type jsonFinding struct {
	jsonPos
	Rule    string        `json:"rule"`
	Msg     string        `json:"msg"`
	Hint    string        `json:"hint,omitempty"`
	Related []jsonRelated `json:"related,omitempty"`
}

// jsonRelated is one secondary location of a finding, e.g. the %w wrap
// site of a sentinel compared with ==.
type jsonRelated struct {
	jsonPos
	Msg string `json:"msg"`
}

type jsonPos struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

func toJSONPos(p token.Position) jsonPos {
	return jsonPos{File: filepath.ToSlash(p.Filename), Line: p.Line, Column: p.Column}
}

func (j jsonPos) position() token.Position {
	return token.Position{Filename: filepath.FromSlash(j.File), Line: j.Line, Column: j.Column}
}

func toJSONFinding(f Finding) jsonFinding {
	jf := jsonFinding{jsonPos: toJSONPos(f.Pos), Rule: f.Rule, Msg: f.Msg, Hint: f.Hint}
	for _, r := range f.Related {
		jf.Related = append(jf.Related, jsonRelated{jsonPos: toJSONPos(r.Pos), Msg: r.Msg})
	}
	return jf
}

func (jf jsonFinding) finding() Finding {
	f := Finding{Pos: jf.position(), Rule: jf.Rule, Msg: jf.Msg, Hint: jf.Hint}
	for _, r := range jf.Related {
		f.Related = append(f.Related, Related{Pos: r.position(), Msg: r.Msg})
	}
	return f
}

// WriteJSONFindings emits the aeropacklint/v1 JSON report.
func WriteJSONFindings(w io.Writer, findings []Finding) error {
	rep := jsonReport{Version: "aeropacklint/v1", Findings: make([]jsonFinding, len(findings))}
	for i, f := range findings {
		rep.Findings[i] = toJSONFinding(f)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
