package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"viewjoin"
)

// FuzzQueryRequest sends arbitrary body bytes to /query and /debug/trace of
// one in-memory server. Whatever the body, the handler answers: it never
// panics, never blames itself (500) or refuses service (503), and times out
// (504) only when the body asked for a deadline of its own. Every answer is
// one JSON document.
func FuzzQueryRequest(f *testing.F) {
	s := New(Config{MaxParallel: 2})
	d := viewjoin.GenerateXMark(0.02)
	if err := s.AddDocument("xmark", d); err != nil {
		f.Fatal(err)
	}
	views, err := viewjoin.ParseViews(testViews)
	if err != nil {
		f.Fatal(err)
	}
	mviews, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		f.Fatal(err)
	}
	for _, mv := range mviews {
		if err := s.AddView("xmark", mv); err != nil {
			f.Fatal(err)
		}
	}
	h := s.Handler()
	f.Add([]byte(`{"document":"xmark","query":"` + testQuery + `","limit":20}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		// Decoded leniently: a body the server decodes strictly carries the
		// same timeout_ms here.
		var asked struct {
			TimeoutMS int64 `json:"timeout_ms"`
		}
		json.NewDecoder(bytes.NewReader(body)).Decode(&asked)
		for _, path := range []string{"/query", "/debug/trace"} {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			switch {
			case rec.Code == http.StatusInternalServerError, rec.Code == http.StatusServiceUnavailable,
				rec.Code == http.StatusGatewayTimeout && asked.TimeoutMS <= 0:
				t.Fatalf("%s %q: status %d: %s", path, body, rec.Code, rec.Body.Bytes())
			case !json.Valid(rec.Body.Bytes()):
				t.Fatalf("%s %q: status %d with a body that is not JSON: %q", path, body, rec.Code, rec.Body.Bytes())
			}
		}
	})
}
