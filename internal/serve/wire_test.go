package serve

import (
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// wireBounds declares, by JSON path, what bounds every integer and
// slice field a study request can carry.  A wire integer or length that
// sizes an allocation or a loop without a bound is a one-request denial
// of service, so a new field of either kind must be entered here, with
// its bound, before TestWireFieldsAreBounded passes.  Command-line flags
// are operator input and stay out of scope.
var wireBounds = map[string]string{
	"budget.max_solver_iters":                     "limit: a poll budget, which only ever stops solver work early (Budget.context)",
	"budget.max_wall_ms":                          "limit: a deadline, which only ever stops solver work early (Budget.context)",
	"sweep.powers_w":                              "cap: maxSweepPoints points (validate)",
	"techmap.powers_w":                            "cap: maxGridDim points per axis (validate)",
	"techmap.fluxes_w_cm2":                        "cap: maxGridDim points per axis (validate)",
	"qualification.article.shock_cycles_required": "value: the numerator of the thermal-shock damage ratio; it sizes nothing",
	"study.copper.layers":                         "value: arithmetic in materials.PCB; it sizes nothing",
	"study.components":                            "body: every entry takes bytes of the maxRequestBytes document",
}

// wireCaps are the wireBounds entries with a count cap, each with a
// request body carrying n elements in that field.
var wireCaps = []struct {
	field string
	cap   int
	body  func(n int) string
}{
	{"sweep.powers_w", maxSweepPoints, func(n int) string {
		return `{"kind":"sweep","sweep":{"powers_w":` + onesJSON(n) + `}}`
	}},
	{"techmap.powers_w", maxGridDim, func(n int) string {
		return `{"kind":"techmap","techmap":{"powers_w":` + onesJSON(n) + `,"fluxes_w_cm2":[1]}}`
	}},
	{"techmap.fluxes_w_cm2", maxGridDim, func(n int) string {
		return `{"kind":"techmap","techmap":{"powers_w":[1],"fluxes_w_cm2":` + onesJSON(n) + `}}`
	}},
}

// onesJSON renders a JSON array of n ones.
func onesJSON(n int) string {
	return "[" + strings.TrimSuffix(strings.Repeat("1,", n), ",") + "]"
}

// TestWireFieldsAreBounded walks StudyRequest's type tree and fails on
// any integer, slice or map field missing from wireBounds (and on any
// stale entry).  Every capped field must decode at its cap and answer
// 400 one element past it, and a component list is cut off by the body
// limit.
func TestWireFieldsAreBounded(t *testing.T) {
	seen := make(map[string]bool)
	var walk func(prefix string, typ reflect.Type)
	walk = func(prefix string, typ reflect.Type) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice || typ.Kind() == reflect.Map {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			switch {
			case name == "-" || !f.IsExported():
				continue
			case f.Anonymous && name == "":
				walk(prefix, f.Type) // promoted fields keep the parent's path
				continue
			case name == "":
				name = f.Name
			}
			path := prefix + name
			ft := f.Type
			for ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			if k := ft.Kind(); k >= reflect.Int && k <= reflect.Uintptr || k == reflect.Slice || k == reflect.Map {
				seen[path] = true
				if wireBounds[path] == "" {
					t.Errorf("wire field %s (%s) has no declared bound in wireBounds", path, ft)
				}
			}
			walk(path+".", ft)
		}
	}
	walk("", reflect.TypeOf(StudyRequest{}))
	for path := range wireBounds {
		if !seen[path] {
			t.Errorf("wireBounds names %s, which no request carries", path)
		}
	}

	s := newTestServer(t, Options{Workers: 1})
	for _, c := range wireCaps {
		if !strings.HasPrefix(wireBounds[c.field], "cap:") {
			t.Errorf("%s is capped, but wireBounds does not say so", c.field)
		}
		if _, serr := decodeRequest([]byte(c.body(c.cap))); serr != nil {
			t.Errorf("%s at its cap of %d: %s", c.field, c.cap, serr.Error)
		}
		if w := postStudy(s, []byte(c.body(c.cap+1))); w.Code != http.StatusBadRequest {
			t.Errorf("%s one past its cap: status %d, want 400\nbody: %s", c.field, w.Code, w.Body.Bytes())
		}
	}
	comp := `{"refdes":"U1","package":"BGA-256","power_w":1,"x_mm":10,"y_mm":10},`
	body := `{"kind":"study","study":{"components":[` +
		strings.Repeat(comp, maxRequestBytes/len(comp)) + comp[:len(comp)-1] + `]}}`
	if w := postStudy(s, []byte(body)); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), "reading request") {
		t.Errorf("components past the body limit: status %d, want a 400 from the body read\nbody: %s", w.Code, w.Body.Bytes())
	}
}

// TestUnknownTIMRejected checks an unknown interface material is a 400
// with the unknown-material message form on both COSEE-configured
// kinds, instead of a grease answer.
func TestUnknownTIMRejected(t *testing.T) {
	var qual map[string]any
	if err := json.Unmarshal(readContract(t, "qualification.request.json"), &qual); err != nil {
		t.Fatal(err)
	}
	article := qual["qualification"].(map[string]any)["article"].(map[string]any)
	article["cosee"].(map[string]any)["tim"] = "unobtainium"
	qualBody, err := json.Marshal(qual)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"sweep":         readContract(t, "unknown-tim.request.json"),
		"qualification": qualBody,
	} {
		s := newTestServer(t, Options{Workers: 1})
		w := postStudy(s, body)
		var e StudyError
		if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: %v\nbody: %s", name, err, w.Body.Bytes())
		}
		if w.Code != http.StatusBadRequest || e.Code != CodeBadRequest ||
			e.Error != `serve: tim: unknown material "unobtainium"` {
			t.Errorf("%s: status %d, %s %q; want 400 bad_request with the unknown-material message", name, w.Code, e.Code, e.Error)
		}
	}
}
