package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// TestQueryRequestDecodingEdges pins what a /query body means where
// encoding/json is lenient or particular, so a decoder that takes the
// common shape itself answers every other body as before.
func TestQueryRequestDecodingEdges(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	q := `"document":"xmark","query":"` + testQuery + `"`
	cases := []struct {
		name, body string
		status     int
		rows       int    // rows a 200 returns
		err        string // error text a 400 carries
	}{
		{"keys match case-insensitively", `{"Document":"xmark","QUERY":"` + testQuery + `","Limit":3}`, http.StatusOK, 3, ""},
		{"the last duplicate wins", `{` + q + `,"limit":5,"limit":2}`, http.StatusOK, 2, ""},
		{"null views", `{` + q + `,"views":null,"limit":1}`, http.StatusOK, 1, ""},
		{"exponent limit", `{` + q + `,"limit":1e2}`, http.StatusBadRequest, 0,
			"json: cannot unmarshal number 1e2 into Go struct field queryRequest.limit of type int"},
		{"fractional limit", `{` + q + `,"limit":20.0}`, http.StatusBadRequest, 0,
			"json: cannot unmarshal number 20.0 into Go struct field queryRequest.limit of type int"},
		{"trailing bytes", `{` + q + `,"limit":4} {"limit":` + "\x00", http.StatusOK, 4, ""},
		{"escaped slashes", `{"document":"xmark","query":"` + strings.ReplaceAll(testQuery, "/", `\/`) + `","limit":3}`,
			http.StatusOK, 3, ""},
		{"past the size limit", `{` + q + `,` + strings.Repeat(" ", 1<<20) + `"limit":3}`,
			http.StatusBadRequest, 0, "unexpected EOF"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(c.body)))
			if w.Code != c.status {
				t.Fatalf("status %d, want %d: %s", w.Code, c.status, clip(w.Body.Bytes()))
			}
			if c.status != http.StatusOK {
				var er errorResponse
				if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Stage != "request" || er.Error != c.err {
					t.Fatalf("error body %s, want stage request, error %q", w.Body.Bytes(), c.err)
				}
				return
			}
			var r queryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil || len(r.Matches) != c.rows || r.Query != testQuery {
				t.Fatalf("%d rows of %q (%v), want %d of %q", len(r.Matches), r.Query, err, c.rows, testQuery)
			}
		})
	}
}

// canonicalBodies are request bodies in the shape clients send, every one
// of which scanQueryRequest must take itself.
var canonicalBodies = []string{
	`{"document":"xmark","query":"` + testQuery + `","limit":20}`,
	`{"document":"xmark","query":"` + testQuery + `","views":["//site//item//name","//description//keyword"],"limit":20,"cursor":"AAAAAAAAAAABAAAAAgAAAAMAAAA"}`,
	`{"document":"xmark","query":"` + testQuery + `","engine":"TS","views":[],"timeout_ms":250,"limit":0}`,
	` { "document" : "xmark" ,` + "\n\t" + `"query":"//a" } ` + "\r\n",
	`{}`,
}

// corpusBodies returns the bodies a committed fuzz corpus holds.
func corpusBodies(t testing.TB, fuzzer string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", fuzzer, "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no %s corpus: %v", fuzzer, err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// FuzzQueryRequestDecode holds the /query decoder to encoding/json: for any
// body, decodeQueryRequest and a json.Decoder that disallows unknown fields
// either both decode the same request or both fail with the same error.
func FuzzQueryRequestDecode(f *testing.F) {
	for _, b := range canonicalBodies {
		var r queryRequest
		if scanQueryRequest([]byte(b), &r) != scanDone {
			f.Fatalf("the scanner declines canonical body %s", b)
		}
		f.Add([]byte(b))
	}
	for _, b := range corpusBodies(f, "FuzzQueryRequest") {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want queryRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		werr := dec.Decode(&want)
		// The body in one read, in two, and a byte a read (past maxScans).
		half := len(body) / 2
		for _, rd := range []io.Reader{
			bytes.NewReader(body),
			io.MultiReader(bytes.NewReader(body[:half]), bytes.NewReader(body[half:])),
			iotest.OneByteReader(bytes.NewReader(body)),
		} {
			var got queryRequest
			err := decodeQueryRequest(rd, &got)
			switch {
			case (err == nil) != (werr == nil):
				t.Fatalf("%q: error %v, encoding/json's %v", body, err, werr)
			case err != nil && err.Error() != werr.Error():
				t.Fatalf("%q: error %q, encoding/json's %q", body, err, werr)
			case err == nil && !reflect.DeepEqual(got, want):
				t.Fatalf("%q: decoded %#v, encoding/json %#v", body, got, want)
			}
		}
	})
}

// heldOpen is a request body whose sender has sent data and keeps the
// stream open: a read past data waits until release is closed.
type heldOpen struct {
	data    io.Reader
	release chan struct{}
}

func (h *heldOpen) Read(p []byte) (int, error) {
	if n, _ := h.data.Read(p); n > 0 {
		return n, nil
	}
	<-h.release
	return 0, io.EOF
}

// TestQueryRequestHeldOpen: a request object whose sender keeps the stream
// open after it is answered without waiting for the end of the body, as
// json.Decoder answers it, whether the scanner takes the object or
// encoding/json does.
func TestQueryRequestHeldOpen(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	for _, body := range []string{
		`{"document":"xmark","query":"` + testQuery + `","limit":3}`,
		`{"document":"xmark","query":"` + testQuery + `","limit":3} {"limit":`,
		`{"Document":"xmark","query":"` + testQuery + `","limit":3}`,
		`{"document":"xmark","query":"` + strings.ReplaceAll(testQuery, "/", `\/`) + `","limit":3}`,
	} {
		release := make(chan struct{})
		req := httptest.NewRequest(http.MethodPost, "/query", nil)
		req.Body = io.NopCloser(&heldOpen{strings.NewReader(body), release})
		w := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(w, req)
		}()
		select {
		case <-done:
			if w.Code != http.StatusOK {
				t.Errorf("%s: status %d: %s", body, w.Code, clip(w.Body.Bytes()))
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%s: no answer while the body is held open", body)
		}
		close(release)
		<-done
	}
}

// TestQueryRequestReadErrors: a body whose reading fails decodes as it did
// when the decoder read it itself, failing with the read error only if the
// object was not complete before it.
func TestQueryRequestReadErrors(t *testing.T) {
	boom := errors.New("connection reset")
	for _, prefix := range []string{``, `{"limit":3`, `{"limit":3}`, `{"limit":3} `, `{"Limit":3}`} {
		body := func() io.Reader { return io.MultiReader(strings.NewReader(prefix), iotest.ErrReader(boom)) }
		var got, want queryRequest
		err, werr := decodeQueryRequest(body(), &got), decodeStrict(body(), &want)
		if fmt.Sprint(err) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q then an error: decoded %+v, %v; decodeStrict %+v, %v", prefix, got, err, want, werr)
		}
	}
}

// discardWriter is a reusable http.ResponseWriter that keeps only the
// status, so a measured request allocates only what the handler does.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }

// pageRequest serves page 1 of the test query's 20-row pages on a server
// configured by cfg, and returns a function that serves page 2 through
// Handler() from the cached plan and returns its status: what each request
// of a client walking the cursor costs, its body spelled as such a client
// spells it.
func pageRequest(t testing.TB, cfg Config) func() int {
	t.Helper()
	h := newTestServer(t, cfg).Handler()
	first := `{"document":"xmark","query":"` + testQuery + `","views":["//site//item//name","//description//keyword"],"limit":20`
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(first+"}")))
	var p1 queryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &p1); err != nil || w.Code != http.StatusOK || p1.Cursor == "" {
		t.Fatalf("page 1: status %d, cursor %q: %s", w.Code, p1.Cursor, clip(w.Body.Bytes()))
	}
	body := []byte(first + `,"cursor":"` + p1.Cursor + `"}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/query", nil)
	req.Body = io.NopCloser(rd)
	dw := &discardWriter{h: http.Header{}}
	serve := func() int {
		rd.Reset(body)
		dw.code = http.StatusOK
		h.ServeHTTP(dw, req)
		return dw.code
	}
	var p2 queryResponse
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
	if err := json.Unmarshal(w.Body.Bytes(), &p2); err != nil || len(p2.Matches) != 20 || p2.Cache != "hit" {
		t.Fatalf("page 2: %d rows, cache %q (%v), want a full page from the cached plan", len(p2.Matches), p2.Cache, err)
	}
	return serve
}

// maxPageRequestAllocs is what a cached-plan 20-row cursor page may
// allocate, handler and run together.
const maxPageRequestAllocs = 24

// pageConfigs are the configurations a page request is measured at: the
// zero Config, and DeployedConfig(), the one vjserve builds from its flag
// defaults (the zero Config with its defaults filled in).
var pageConfigs = []struct {
	name string
	cfg  Config
}{{"zero", Config{}}, {"deployed", DeployedConfig()}}

// TestPageRequestAllocations pins the allocations of one cached-plan page
// request at each of pageConfigs (the slowlog always on), so reflection, a
// per-request rendering or a per-request recorder cannot creep back into
// the request edge unnoticed.
func TestPageRequestAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, pc := range pageConfigs {
		t.Run(pc.name, func(t *testing.T) {
			serve := pageRequest(t, pc.cfg)
			allocs := testing.AllocsPerRun(200, func() {
				if code := serve(); code != http.StatusOK {
					t.Fatalf("status %d", code)
				}
			})
			if allocs > maxPageRequestAllocs {
				t.Errorf("a page request allocates %.1f objects, ceiling %d", allocs, maxPageRequestAllocs)
			}
			t.Logf("%.1f allocations per page request", allocs)
		})
	}
}

// BenchmarkServePage serves one cached-plan 20-row cursor page through
// Handler() per iteration, at the zero Config vjserve deploys.
func BenchmarkServePage(b *testing.B) {
	serve := pageRequest(b, Config{})
	b.ReportAllocs()
	for b.Loop() {
		if code := serve(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}
