package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"viewjoin"
)

var updateEdgeGolden = flag.Bool("update", false, "rewrite testdata/edge_golden.txt from this build's answers")

const edgeGoldenPath = "testdata/edge_golden.txt"

// Clock readings vary from run to run: a wall-clock stamp is emptied and
// a duration zeroed. Every clock key is written whatever its value, so the
// keys a line carries stay in the file.
var (
	stampPattern    = regexp.MustCompile(`"time":"[^"]*"`)
	durationPattern = regexp.MustCompile(`"([A-Za-z0-9_]*(?:_us|_ms|Nanos|nanos))":-?[0-9]+`)
)

func unclocked(b []byte) string {
	b = bytes.TrimRight(b, "\n")
	b = stampPattern.ReplaceAll(b, []byte(`"time":""`))
	return string(durationPattern.ReplaceAll(b, []byte(`"$1":0`)))
}

// slowestByText reorders a /debug/slowlog body's slow set by its entries'
// text with the clocks taken out: the set ranks by wall time, which varies
// from run to run.
func slowestByText(t *testing.T, body []byte) []byte {
	t.Helper()
	var snap slowlogSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/slowlog body %s: %v", body, err)
	}
	text := func(e accessLine) string {
		b, _ := json.Marshal(e)
		return unclocked(b)
	}
	sort.SliceStable(snap.Slowest, func(i, j int) bool { return text(snap.Slowest[i]) < text(snap.Slowest[j]) })
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServeEdgeGolden drives a fixed script through Handler() — every way
// a /query, /debug/trace or /update request ends — and compares, step by
// step, each answer's status and body and the access lines the step wrote,
// then /metrics, /debug/plans and /debug/slowlog, with clock readings
// taken out, against testdata/edge_golden.txt. Run with -update to rewrite
// the file.
func TestServeEdgeGolden(t *testing.T) {
	var log bytes.Buffer
	s := newTestServer(t, Config{Workers: 1, AccessLog: &log})
	// A second document serving a view from a file, which /update refuses.
	filed := viewjoin.GenerateXMark(0.01)
	if err := s.AddDocument("filed", filed); err != nil {
		t.Fatal(err)
	}
	views, err := viewjoin.ParseViews("//site//item//name")
	if err != nil {
		t.Fatal(err)
	}
	mviews, err := filed.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "name.vjc")
	if _, err := mviews[0].SaveViewFile(path); err != nil {
		t.Fatal(err)
	}
	if err := s.AddViewFile("filed", path); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()

	var out strings.Builder
	logged := 0
	// send serves one request and records its answer.
	send := func(ctx context.Context, method, path, body string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	record := func(path, body string, w *httptest.ResponseRecorder) {
		fmt.Fprintf(&out, "%s %s\n-> %d %s\n", path, body, w.Code, unclocked(w.Body.Bytes()))
	}
	// step runs do and records its requests' answers and the access lines
	// they wrote.
	step := func(name string, do func()) {
		fmt.Fprintf(&out, "== %s\n", name)
		do()
		lines := strings.Split(strings.TrimSpace(log.String()), "\n")
		if log.Len() == 0 {
			lines = nil
		}
		for _, l := range lines[logged:] {
			fmt.Fprintf(&out, "access %s\n", unclocked([]byte(l)))
		}
		logged = len(lines)
	}
	post := func(path, body string) *httptest.ResponseRecorder {
		w := send(context.Background(), http.MethodPost, path, body)
		record(path, body, w)
		return w
	}
	get := func(path string) {
		fmt.Fprintf(&out, "== GET %s\n", path)
		w := send(context.Background(), http.MethodGet, path, "")
		body := w.Body.Bytes()
		if path == "/debug/slowlog" {
			body = slowestByText(t, body)
		}
		fmt.Fprintf(&out, "-> %d %s\n", w.Code, unclocked(body))
	}
	// held serves body while the worker is held at the evaluation gate:
	// during runs with the gate shut, then release lets the request go on.
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	held := func(ctx context.Context, path, body string, during func()) {
		s.testEvalGate = gate
		s.testEvalStarted = func() { started <- struct{}{} }
		done := make(chan *httptest.ResponseRecorder, 1)
		go func() { done <- send(ctx, http.MethodPost, path, body) }()
		<-started
		during()
		gate <- struct{}{}
		record(path, body, <-done)
		s.testEvalGate, s.testEvalStarted = nil, nil
	}

	q := `"query":"` + testQuery + `"`
	page := `{"document":"xmark",` + q + `,"views":["//site//item//name","//description//keyword"],"limit":3`
	var cursorBody string
	step("query: full", func() { post("/query", `{"document":"xmark",`+q+`}`) })
	step("query: page", func() {
		w := post("/query", page+`}`)
		m := regexp.MustCompile(`"cursor":"([^"]*)"`).FindSubmatch(w.Body.Bytes())
		if m == nil {
			t.Fatalf("page carries no cursor: %s", w.Body.Bytes())
		}
		cursorBody = page + `,"cursor":"` + string(m[1]) + `"}`
	})
	step("query: cursor follow-up", func() { post("/query", cursorBody) })
	step("query: 400 body", func() { post("/query", `{"document":"xmark",`+q+`,"limt":3}`) })
	step("query: 400 parse", func() { post("/query", `{"document":"xmark","query":"//a["}`) })
	step("query: 404 document", func() { post("/query", `{"document":"nope",`+q+`}`) })
	step("query: 404 view", func() { post("/query", `{"document":"xmark",`+q+`,"views":["//nosuch//view"]}`) })
	step("query: 422 prepare", func() { post("/query", `{"document":"xmark",`+q+`,"engine":"IJ"}`) })
	step("query: 504 deadline", func() {
		held(context.Background(), "/query", `{"document":"xmark",`+q+`,"timeout_ms":1}`, func() {
			time.Sleep(20 * time.Millisecond)
		})
	})
	step("query: 499 client gone", func() {
		ctx, cancel := context.WithCancel(context.Background())
		held(ctx, "/query", `{"document":"xmark",`+q+`}`, cancel)
	})
	step("query: 429 shed", func() {
		// The queue's waiters stand in the gauge admission reads: real
		// ones would each run and log once the worker is free.
		held(context.Background(), "/query", `{"document":"xmark",`+q+`}`, func() {
			s.queued.Add(int64(s.cfg.QueueDepth))
			post("/query", `{"document":"xmark",`+q+`}`)
			s.queued.Add(-int64(s.cfg.QueueDepth))
		})
	})
	step("trace: 200", func() { post("/debug/trace", page+`}`) })
	get("/debug/plans") // before /update drops the plan's runs
	step("update: 400 body", func() {
		post("/update", `{"document":"xmark","op":"append-child","traget":1,"fragment":"<ext/>"}`)
	})
	step("update: 409 file-backed", func() {
		post("/update", `{"document":"filed","op":"delete-subtree","target":1}`)
	})
	step("update: 500 maintain", func() {
		s.testFailMaintain = func(view string) error {
			if view == "//description//keyword" {
				return errors.New("injected maintenance failure")
			}
			return nil
		}
		post("/update", `{"document":"xmark","op":"append-child","target":1,"fragment":"<ext/>"}`)
		s.testFailMaintain = nil
	})
	step("update: 200", func() {
		post("/update", `{"document":"xmark","op":"append-child","target":1,"fragment":"<ext/>"}`)
	})
	step("query: 410 stale cursor", func() { post("/query", cursorBody) })
	step("query: 503 drain", func() {
		s.Drain()
		post("/query", `{"document":"xmark",`+q+`}`)
	})
	for _, path := range []string{"/metrics", "/debug/plans", "/debug/slowlog"} {
		get(path)
	}

	got := out.String()
	if *updateEdgeGolden {
		if err := os.WriteFile(edgeGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(edgeGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", edgeGoldenPath, i+1, g, w)
		}
	}
}
