package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"viewjoin"
)

// fuzzServer is the server both request fuzzers drive: one in-memory XMark
// 0.02 document with the test views.
func fuzzServer(t testing.TB) (*Server, *viewjoin.Document) {
	t.Helper()
	s := New(Config{})
	d := viewjoin.GenerateXMark(0.02)
	if err := s.AddDocument("xmark", d); err != nil {
		t.Fatal(err)
	}
	views, err := viewjoin.ParseViews(testViews)
	if err != nil {
		t.Fatal(err)
	}
	mviews, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	for _, mv := range mviews {
		if err := s.AddView("xmark", mv); err != nil {
			t.Fatal(err)
		}
	}
	return s, d
}

// FuzzQueryRequest sends arbitrary body bytes to /query and /debug/trace of
// one in-memory server. Whatever the body, the handler answers: it never
// panics, never blames itself (500) or refuses service (503), and times out
// (504) only when the body asked for a deadline of its own. Every answer is
// one JSON document.
func FuzzQueryRequest(f *testing.F) {
	s, _ := fuzzServer(f)
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

// FuzzUpdateRequest sends arbitrary body bytes to /update of a fresh
// in-memory server. Whatever the body, the handler answers one JSON
// document without panicking, blaming itself (500) or refusing service
// (503, 504). The update is all or nothing: a 200 advances the document
// exactly one epoch and anything else leaves it where it was. After a 200
// the served query counts what direct evaluation of the updated document
// counts, so a maintained view that went wrong shows here too.
func FuzzUpdateRequest(f *testing.F) {
	q := viewjoin.MustParseQuery(testQuery)
	f.Fuzz(func(t *testing.T, body []byte) {
		s, d := fuzzServer(t)
		h := s.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update", bytes.NewReader(body)))
		switch {
		case rec.Code >= 500:
			t.Fatalf("%q: status %d: %s", body, rec.Code, rec.Body.Bytes())
		case !json.Valid(rec.Body.Bytes()):
			t.Fatalf("%q: status %d with a body that is not JSON: %q", body, rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			if d.Epoch() != 0 {
				t.Fatalf("%q: answered %d and moved the document to epoch %d", body, rec.Code, d.Epoch())
			}
			return
		}
		if d.Epoch() != 1 {
			t.Fatalf("%q: answered 200 and left the document at epoch %d", body, d.Epoch())
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query",
			bytes.NewReader([]byte(`{"document":"xmark","query":"`+testQuery+`"}`))))
		var got struct {
			MatchCount int `json:"match_count"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%q: query after the update: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
		if want := len(viewjoin.EvaluateDirect(d, q).Matches); got.MatchCount != want {
			t.Fatalf("%q: after the update the maintained views count %d matches, the document %d", body, got.MatchCount, want)
		}
	})
}
