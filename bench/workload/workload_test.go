package workload

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"aeropack/internal/compact"
	"aeropack/internal/obs"
	"aeropack/internal/serve"
)

func all(s *Set) []Request { return append(append([]Request(nil), s.Warmup...), s.Measured...) }

func TestSameSeedSameBodies(t *testing.T) {
	for _, spec := range Specs {
		a, err := Generate(spec.Name, 7, 300)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(spec.Name, 7, 300)
		c, _ := Generate(spec.Name, 8, 300)
		ra, rb, rc := all(a), all(b), all(c)
		if len(ra) != len(rb) {
			t.Fatalf("%s: %d vs %d requests for one seed", spec.Name, len(ra), len(rb))
		}
		differ := 0
		for i := range ra {
			if !bytes.Equal(ra[i].Body, rb[i].Body) || ra[i].Pair != rb[i].Pair {
				t.Fatalf("%s: request %d differs between two runs of seed 7", spec.Name, i)
			}
			if i < len(rc) && !bytes.Equal(ra[i].Body, rc[i].Body) {
				differ++
			}
		}
		if differ < len(ra)/2 {
			t.Errorf("%s: seeds 7 and 8 share %d of %d bodies", spec.Name, len(ra)-differ, len(ra))
		}
	}
}

// decodeStrict decodes a body the way aeropackd does: unknown fields
// and trailing data are errors.
func decodeStrict(t *testing.T, body []byte) *serve.StudyRequest {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req serve.StudyRequest
	if err := dec.Decode(&req); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if dec.More() {
		t.Fatalf("trailing data after %s", body)
	}
	return &req
}

// Two hundred bodies of each generator are accepted by the server.  The
// COSEE, technology-map and Fig. 10 bodies go through an in-process
// aeropackd and must answer 200.  Solving 200 board studies would take
// minutes, so board bodies are checked against what the server checks
// before solving: strict decoding, known packages and cooling, and every
// part wholly on its board (which implies core's placement check).  A few
// board bodies still go through the server.
func TestBodiesPassServeValidation(t *testing.T) {
	srv, err := serve.NewServer(serve.Options{Workers: 2, Registry: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, spec := range Specs {
		set, err := Generate(spec.Name, 3, 200)
		if err != nil {
			t.Fatal(err)
		}
		var viaServer []Request
		boards := 0
		for _, r := range set.Measured {
			req := decodeStrict(t, r.Body)
			if req.Kind != r.Kind {
				t.Fatalf("%s: body kind %q, request kind %q", spec.Name, req.Kind, r.Kind)
			}
			if req.Kind != "study" {
				viaServer = append(viaServer, r)
				continue
			}
			checkBoard(t, spec.Name, req.Study)
			if boards++; boards <= 2 {
				viaServer = append(viaServer, r)
			}
		}
		// Two goroutines, like aeropackd's two clients.
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(viaServer); i += 2 {
					rec := httptest.NewRecorder()
					srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/studies", bytes.NewReader(viaServer[i].Body)))
					if rec.Code != http.StatusOK {
						t.Errorf("%s: status %d for %s: %s", spec.Name, rec.Code, viaServer[i].Body, rec.Body)
					}
				}
			}(c)
		}
		wg.Wait()
	}
}

func checkBoard(t *testing.T, workload string, b *serve.BoardSpec) {
	t.Helper()
	if b.LengthMM <= 0 || b.WidthMM <= 0 || b.ThicknessMM <= 0 || len(b.Components) == 0 {
		t.Fatalf("%s: degenerate board %+v", workload, b)
	}
	switch b.Cooling {
	case "conduction", "forced-air", "free-convection":
	default:
		t.Fatalf("%s: unknown cooling %q", workload, b.Cooling)
	}
	for _, c := range b.Components {
		if _, err := compact.Get(c.Package); err != nil {
			t.Fatalf("%s: %v", workload, err)
		}
		l, w, ok := PackageMM(c.Package)
		if !ok {
			t.Fatalf("%s: no size for package %q", workload, c.Package)
		}
		if c.XMM-l/2 < 0 || c.XMM+l/2 > b.LengthMM || c.YMM-w/2 < 0 || c.YMM+w/2 > b.WidthMM {
			t.Errorf("%s: %s (%s) at (%g, %g) mm sticks out of the %g × %g mm board %s",
				workload, c.RefDes, c.Package, c.XMM, c.YMM, b.LengthMM, b.WidthMM, b.Name)
		}
		if c.PowerW < 0.5 || c.PowerW > 5.5 {
			t.Errorf("%s: %s dissipates %g W, outside 0.5–5.5 W", workload, c.RefDes, c.PowerW)
		}
	}
}

// The package sizes the generator places by must be the library's.
func TestPackageSizesMatchLibrary(t *testing.T) {
	for _, name := range BoardPackages {
		p, err := compact.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		l, w, ok := PackageMM(name)
		if !ok || l != p.Length*1e3 || w != p.Width*1e3 {
			t.Errorf("%s: generator size %g × %g mm, library %g × %g mm", name, l, w, p.Length*1e3, p.Width*1e3)
		}
	}
}

func TestCoolingSplit(t *testing.T) {
	for _, tc := range []struct {
		name      string
		radiating bool
	}{{BoardLinear, false}, {BoardRadiating, true}} {
		set, err := Generate(tc.name, 5, 400)
		if err != nil {
			t.Fatal(err)
		}
		budgeted := 0
		for _, r := range all(set) {
			req := decodeStrict(t, r.Body)
			if got := req.Study.Cooling == "free-convection"; got != tc.radiating {
				t.Fatalf("%s: board %s is %s-cooled", tc.name, req.Study.Name, req.Study.Cooling)
			}
			if req.Budget != nil {
				budgeted++
			}
		}
		if n := len(all(set)); budgeted != n/2 {
			t.Errorf("%s: %d of %d bodies budgeted, want half", tc.name, budgeted, n)
		}
	}
}

func TestServeMixedShape(t *testing.T) {
	pool := Pool(11)
	kinds := map[string]int{}
	structures := map[string]bool{}
	for _, r := range pool {
		kinds[r.Kind]++
		if r.Kind == "fig10" {
			req := decodeStrict(t, r.Body)
			s := ""
			if req.Fig10 != nil {
				s = req.Fig10.Structure
			}
			structures[s] = true
		}
		if bytes.Contains(r.Body, []byte(`"budget"`)) {
			t.Errorf("pool body is budgeted, so it would never be cached: %s", r.Body)
		}
	}
	if len(pool) != PoolSize || kinds["study"] != 8 || len(kinds) != 5 || len(structures) != len(Fig10Structures) {
		t.Errorf("pool of %d has kinds %v and Fig. 10 structures %v", len(pool), kinds, structures)
	}

	set, err := Generate(ServeMixed, 11, 39*100)
	if err != nil {
		t.Fatal(err)
	}
	inPool := map[string]bool{}
	for _, r := range pool {
		inPool[r.SHA256] = true
	}
	var replays, unique, pairs int
	for _, r := range set.Measured {
		switch {
		case r.Pair:
			pairs++
		case inPool[r.SHA256]:
			replays++
		default:
			unique++
		}
	}
	// Per 40 requests: 30 replays, 8 unique maps, one pair (two sends).
	if replays != 3000 || unique != 800 || pairs != 100 || set.Requests() != 4000 {
		t.Errorf("%d replays, %d unique, %d pairs in %d requests", replays, unique, pairs, set.Requests())
	}
}
