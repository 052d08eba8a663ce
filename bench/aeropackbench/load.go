package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aeropack/bench/workload"
)

// clients is the number of closed-loop clients, each with its own
// connection: the load aeropackd sees is two requests in flight.
const clients = 2

// outcome is one sent request.
type outcome struct {
	ns    int64
	seq   int // completion order, from 1
	hash  [sha256.Size]byte
	ok    bool
	cache string // X-Aeropack-Cache: "hit", "miss" or "dedup"
}

// sample is a response kept for recomputation after the run.
type sample struct {
	req   *workload.Request
	body  []byte
	cache string
}

// part is one of workload.Parts consecutive stretches, in completion
// order, that a driven sequence is cut into.
type part struct {
	dur       time.Duration
	serverCPU float64   // aeropackd CPU seconds
	rssMB     float64   // aeropackd resident memory as the part ended
	latencies []float64 // ms, completed requests
}

// loadResult is one driven sequence.
type loadResult struct {
	attempted, completed int
	parts                []part
	serverCPU            float64           // aeropackd CPU seconds over the whole sequence
	digest               string            // sha256 over the response digests in send order
	samples              []sample          // kept responses, in send order
	fig10                map[string][]byte // distinct Fig. 10 bodies by digest
	problems             []string
}

// dispatcher hands the sequence to the clients.  A pair item is handed
// to both: the first claimer waits until the other claims it too, so the
// two identical bodies are sent at once.
type dispatcher struct {
	mu      sync.Mutex
	reqs    []workload.Request
	next    int
	partner chan struct{} // non-nil while one client waits at a pair
}

// claim returns the next item and the claimer's slot in it (1 only for
// a pair's second send), or -1 when the sequence is exhausted.
func (d *dispatcher) claim() (int, int) {
	d.mu.Lock()
	i := d.next
	switch {
	case i >= len(d.reqs):
		d.mu.Unlock()
		return -1, 0
	case !d.reqs[i].Pair:
		d.next++
		d.mu.Unlock()
		return i, 0
	case d.partner == nil:
		ch := make(chan struct{})
		d.partner = ch
		d.mu.Unlock()
		<-ch // the other client always reaches this item: it cannot pass it
		return i, 0
	default:
		close(d.partner)
		d.partner = nil
		d.next++
		d.mu.Unlock()
		return i, 1
	}
}

// mark is the state at the end of a part.
type mark struct {
	t        time.Duration
	cpu, rss float64
}

// probe reads aeropackd's CPU seconds and resident MiB.
type probe func() (cpu, rss float64)

// drive sends reqs to the aeropackd at base from the closed-loop
// clients and checks every response.  keep selects the send positions
// whose response bodies are kept as samples.  read, when not nil, is
// called as the sequence starts and as each part ends.
func drive(base string, reqs []workload.Request, keep map[int]bool, read probe) *loadResult {
	starts := make([]int, len(reqs)+1) // send position of each item's first request
	for i, r := range reqs {
		starts[i+1] = starts[i] + 1
		if r.Pair {
			starts[i+1]++
		}
	}
	total := starts[len(reqs)]
	outs := make([]outcome, total)
	// ends[j] is the completion count that closes part j.
	ends := make([]int, min(workload.Parts, total))
	partEnding := make(map[int]int, len(ends))
	for j := range ends {
		ends[j] = int(math.Round(float64((j+1)*total) / float64(len(ends))))
		partEnding[ends[j]] = j
	}
	if read == nil {
		read = func() (float64, float64) { return 0, 0 }
	}
	marks := make([]mark, len(ends)) // each written once, by the client completing its end
	var completions atomic.Int64

	d := &dispatcher{reqs: reqs}
	type clientState struct {
		samples  map[int][]byte
		fig10    map[string][]byte
		rounded  map[[sha256.Size]byte][sha256.Size]byte // study digests by raw digest
		problems []string
	}
	states := make([]clientState, clients)
	var wg sync.WaitGroup
	cpu0, _ := read()
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		st := &states[c]
		st.samples, st.fig10 = map[int][]byte{}, map[string][]byte{}
		st.rounded = map[[sha256.Size]byte][sha256.Size]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newConn(base)
			defer cl.close()
			var buf bytes.Buffer
			for {
				i, slot := d.claim()
				if i < 0 {
					return
				}
				r := &reqs[i]
				pos := starts[i] + slot
				oc := &outs[pos]
				start := time.Now()
				status, cache, err := cl.post("/v1/studies", r.Body, &buf)
				oc.ns = time.Since(start).Nanoseconds()
				oc.seq = int(completions.Add(1))
				if j, ok := partEnding[oc.seq]; ok {
					cpu, rss := read()
					marks[j] = mark{t: time.Since(t0), cpu: cpu, rss: rss}
				}
				oc.cache = cache
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("status %d: %.200s", status, buf.Bytes())
				}
				if err == nil {
					err = checkEnvelope(r, buf.Bytes())
				}
				raw := sha256.Sum256(buf.Bytes())
				oc.hash = raw
				if err == nil && r.Kind == "study" {
					// Study responses enter the digest rounded (see canon.go);
					// hits replay the same bytes, so each is rounded once.
					var seen bool
					if oc.hash, seen = st.rounded[raw]; !seen {
						oc.hash, err = roundedDigest(buf.Bytes())
						st.rounded[raw] = oc.hash
					}
				}
				if err != nil {
					if len(st.problems) < maxProblems {
						st.problems = append(st.problems, fmt.Sprintf("request %d (%s): %v", pos, r.Kind, err))
					}
					continue
				}
				oc.ok = true
				if keep[pos] {
					st.samples[pos] = bytes.Clone(buf.Bytes())
				}
				if r.Kind == "fig10" {
					key := string(raw[:])
					if _, seen := st.fig10[key]; !seen {
						st.fig10[key] = bytes.Clone(buf.Bytes())
					}
				}
			}
		}()
	}
	wg.Wait()

	res := &loadResult{
		attempted: total,
		parts:     make([]part, len(ends)),
		fig10:     map[string][]byte{},
	}
	prev := mark{cpu: cpu0}
	for j, m := range marks {
		res.parts[j].dur, res.parts[j].serverCPU, res.parts[j].rssMB = m.t-prev.t, m.cpu-prev.cpu, m.rss
		prev = m
	}
	res.serverCPU = prev.cpu - cpu0
	h := sha256.New()
	for _, oc := range outs {
		h.Write(oc.hash[:])
		if oc.ok {
			res.completed++
			p := &res.parts[sort.SearchInts(ends, oc.seq)]
			p.latencies = append(p.latencies, float64(oc.ns)/1e6)
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	for i := range reqs {
		for pos := starts[i]; pos < starts[i+1]; pos++ {
			for _, st := range states {
				if b, ok := st.samples[pos]; ok {
					res.samples = append(res.samples, sample{req: &reqs[i], body: b, cache: outs[pos].cache})
				}
			}
		}
	}
	for _, st := range states {
		for k, b := range st.fig10 {
			res.fig10[k] = b
		}
		res.problems = append(res.problems, st.problems...)
	}
	return res
}
