package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"strconv"
)

// aeropackd's study responses are not bitwise-reproducible: the level-3
// junction network seeds its Picard iteration with the mean of its fixed
// temperatures, summed in map order, so junction temperatures and
// margins vary by up to ~1e-13 relative from one run to the next (every
// other kind is bitwise-stable).  Study responses are therefore compared
// within studyTol and enter the responses digest with their numbers
// rounded to digestDigits significant digits, which is far coarser than
// that jitter and far finer than any change to the physics.
const (
	studyTol     = 1e-9
	digestDigits = 6
)

// roundedDigest returns the sha256 of a JSON document re-encoded with
// every number rounded to digestDigits significant digits.
func roundedDigest(body []byte) ([sha256.Size]byte, error) {
	var v any
	if err := json.Unmarshal(body, &v); err != nil {
		return [sha256.Size]byte{}, err
	}
	b, err := json.Marshal(roundNumbers(v))
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return sha256.Sum256(b), nil
}

func roundNumbers(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			x[k] = roundNumbers(e)
		}
	case []any:
		for i, e := range x {
			x[i] = roundNumbers(e)
		}
	case float64:
		r, err := strconv.ParseFloat(strconv.FormatFloat(x, 'g', digestDigits, 64), 64)
		if err == nil {
			return r
		}
	}
	return v
}

// sameResponse reports whether a served response equals a recomputed
// one: byte for byte, or for a study response, with the same structure
// and strings and numbers within studyTol of each other.
func sameResponse(kind string, served, recomputed []byte) bool {
	if bytes.Equal(served, recomputed) {
		return true
	}
	if kind != "study" {
		return false
	}
	var a, b any
	if json.Unmarshal(served, &a) != nil || json.Unmarshal(recomputed, &b) != nil {
		return false
	}
	return closeTrees(a, b)
}

func closeTrees(a, b any) bool {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, e := range x {
			if f, ok := y[k]; !ok || !closeTrees(e, f) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !closeTrees(x[i], y[i]) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && within(x, y)
	default:
		return a == b
	}
}

// within reports whether two numbers agree within studyTol, relative.
func within(a, b float64) bool {
	return math.Abs(a-b) <= studyTol*math.Max(math.Abs(a), math.Abs(b))
}
