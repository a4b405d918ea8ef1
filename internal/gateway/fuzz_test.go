package gateway

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	alisa "repro"
)

// FuzzCompletionRequest drives arbitrary bodies through the completion
// decode and validation, behind the body cap. Every input ends in one of
// two outcomes: a spec the session can run (positive lengths, and a
// finite arrival ≥ 0 when one is given), or an error that writeError
// answers 400 (*alisa.ConfigError) or 413 (a body past the cap). No
// input may panic.
func FuzzCompletionRequest(f *testing.F) {
	for _, seed := range []string{
		`{"input_tokens":64,"max_tokens":6,"stream":true}`,
		`{"id":"a","prompt":"to be or not to be","max_tokens":2,"arrival":0.5}`,
		`{"model":"opt-6.7b","input_tokens":4,"max_tokens":1,"stream":false}`,
		`{"model":"gpt-4","input_tokens":4,"max_tokens":1}`,
		`{"prompt":"hi there","input_tokens":4,"max_tokens":1}`,
		`{"input_tokens":4,"max_tokens":1,"arrival":-0.5}`,
		`{"input_tokens":4,"max_tokens":1,"arrival":1e309}`,
		`{"input_tokens":4,"max_tokens":-1}`,
		`{oops`,
		`{"prompt":"` + strings.Repeat("x ", maxBodyBytes/2) + `","max_tokens":1}`,
	} {
		f.Add([]byte(seed))
	}
	g := &Gateway{model: "opt-6.7b"}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(body))
		spec, _, err := g.parseCompletion(rec, req)
		if err == nil {
			if spec.Input <= 0 || spec.Output <= 0 {
				t.Fatalf("accepted non-positive lengths: %+v", spec)
			}
			if a := spec.Arrival; a != nil && (*a < 0 || math.IsNaN(*a) || math.IsInf(*a, 0)) {
				t.Fatalf("accepted arrival %v", *a)
			}
			return
		}
		var ce *alisa.ConfigError
		var tooLarge *http.MaxBytesError
		want := http.StatusBadRequest
		switch {
		case errors.As(err, &tooLarge):
			want = http.StatusRequestEntityTooLarge
		case !errors.As(err, &ce):
			t.Fatalf("rejected with %T, want *alisa.ConfigError or *http.MaxBytesError: %v", err, err)
		}
		g.writeError(rec, err)
		if rec.Code != want {
			t.Fatalf("writeError(%v) status = %d, want %d", err, rec.Code, want)
		}
	})
}
