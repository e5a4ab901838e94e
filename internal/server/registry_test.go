package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"viewjoin"
)

// saveTestViews materializes the view set and saves each view to a
// container file, returning the paths in view order.
func saveTestViews(t testing.TB, d *viewjoin.Document, viewsStr string, scheme viewjoin.StorageScheme) []string {
	t.Helper()
	views, err := viewjoin.ParseViews(viewsStr)
	if err != nil {
		t.Fatal(err)
	}
	mviews, err := d.MaterializeViews(views, scheme)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := make([]string, len(mviews))
	for i, mv := range mviews {
		paths[i] = filepath.Join(dir, fmt.Sprintf("view-%d.vjst", i))
		if _, err := mv.SaveViewFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// newFileBackedServer builds a server whose views are all registered from
// files for the "xmark" document.
func newFileBackedServer(t testing.TB, cfg Config, paths []string) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.AddDocument("xmark", viewjoin.GenerateXMark(0.05)); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if err := s.AddViewFile("xmark", p); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// wirePage is what of a /query response is a function of the request and
// the data alone: the rows as they were on the wire, their count, the
// resumption cursor and the deterministic counters.
type wirePage struct {
	MatchCount int             `json:"match_count"`
	Matches    json.RawMessage `json:"matches"`
	Cursor     string          `json:"cursor"`
	Stats      struct {
		ElementsScanned int64 `json:"elements_scanned"`
		Comparisons     int64 `json:"comparisons"`
		PointerDerefs   int64 `json:"pointer_derefs"`
		PagesRead       int64 `json:"pages_read"`
		Partitions      int   `json:"partitions"`
	} `json:"stats"`
}

func (a wirePage) equal(b wirePage) bool {
	return a.MatchCount == b.MatchCount && bytes.Equal(a.Matches, b.Matches) &&
		a.Cursor == b.Cursor && a.Stats == b.Stats
}

// TestFileBackedByteIdentical is the acceptance criterion of serving views
// from their mappings: a server whose views were registered from files —
// three documents sharing the same files — must answer byte-identically to
// a server holding the same views in memory, for every engine and scheme
// the catalogue pairs allow, whether the result is fetched whole or paged
// through cursors. Where a view's pages live is a cost decision, never a
// result decision.
func TestFileBackedByteIdentical(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	// One path and one twig query of the catalogue (Q6, Q14) with their
	// covering views; three document names per scheme, since a document
	// holds each view pattern once.
	const copies = 3
	docName := func(scheme viewjoin.StorageScheme, i int) string { return fmt.Sprintf("d%d/%v", i, scheme) }
	const viewSet = "//site/regions; //item; //site//item//name; //description//keyword"
	queries := []struct {
		query string
		views []string
		path  bool
	}{
		{"//site/regions//item", []string{"//site/regions", "//item"}, true},
		{testQuery, []string{"//site//item//name", "//description//keyword"}, false},
	}
	schemes := []viewjoin.StorageScheme{viewjoin.SchemeElement, viewjoin.SchemeLE, viewjoin.SchemeLEp, viewjoin.SchemeTuple}

	mem, file := New(Config{}), New(Config{})
	defer mem.Close()
	defer file.Close()
	for _, scheme := range schemes {
		views, err := viewjoin.ParseViews(viewSet)
		if err != nil {
			t.Fatal(err)
		}
		mviews, err := d.MaterializeViews(views, scheme)
		if err != nil {
			t.Fatal(err)
		}
		paths := saveTestViews(t, d, viewSet, scheme)
		for c := range copies {
			dn := docName(scheme, c)
			for _, s := range []*Server{mem, file} {
				if err := s.AddDocument(dn, d); err != nil {
					t.Fatal(err)
				}
			}
			for i := range mviews {
				if err := mem.AddView(dn, mviews[i]); err != nil {
					t.Fatal(err)
				}
				if err := file.AddViewFile(dn, paths[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	tsMem := httptest.NewServer(mem.Handler())
	tsFile := httptest.NewServer(file.Handler())
	defer tsMem.Close()
	defer tsFile.Close()

	both := func(label string, req queryRequest) wirePage {
		t.Helper()
		var a, b wirePage
		if code := post(t, tsMem, "/query", req, &a); code != http.StatusOK {
			t.Fatalf("%s: in-memory server status %d", label, code)
		}
		if code := post(t, tsFile, "/query", req, &b); code != http.StatusOK {
			t.Fatalf("%s: file-backed server status %d", label, code)
		}
		if !a.equal(b) {
			t.Fatalf("%s: file-backed server diverged: %d vs %d matches, cursors %q vs %q, stats %+v vs %+v",
				label, a.MatchCount, b.MatchCount, a.Cursor, b.Cursor, a.Stats, b.Stats)
		}
		return a
	}
	for _, scheme := range schemes {
		for _, q := range queries {
			engines := []string{"VJ", "TS"}
			if q.path {
				engines = append(engines, "PS")
			}
			if scheme == viewjoin.SchemeTuple {
				if engines = []string{"IJ"}; !q.path {
					continue
				}
			}
			want := len(viewjoin.EvaluateDirect(d, viewjoin.MustParseQuery(q.query)).Matches)
			for _, eng := range engines {
				for c := range copies {
					label := fmt.Sprintf("%s %s document %s", eng, q.query, docName(scheme, c))
					req := queryRequest{Document: docName(scheme, c), Query: q.query, Views: q.views, Engine: eng, Limit: 1 << 20}
					full := both(label, req)
					if full.MatchCount != want {
						t.Fatalf("%s: %d matches, want %d", label, full.MatchCount, want)
					}
					req.Limit = want/3 + 1
					paged := 0
					for page := 0; ; page++ {
						pg := both(fmt.Sprintf("%s page %d", label, page), req)
						paged += pg.MatchCount
						if req.Cursor = pg.Cursor; pg.Cursor == "" {
							break
						}
					}
					if paged != want {
						t.Fatalf("%s: pages hold %d matches, want %d", label, paged, want)
					}
				}
			}
		}
	}

	vm := getMetrics(t, tsFile).Views
	nviews := copies * len(schemes) * 4
	if vm.FileViews != nviews || vm.MemoryViews != 0 || vm.FileBytes == 0 {
		t.Errorf("file-backed server's view gauges: %+v, want %d file views", vm, nviews)
	}
	if vm = getMetrics(t, tsMem).Views; vm.MemoryViews != nviews || vm.FileViews != 0 || vm.FileBytes != 0 {
		t.Errorf("in-memory server's view gauges: %+v, want %d memory views", vm, nviews)
	}
}

// TestDocumentIsolation: two documents each see only their own views — a
// view registered for one is a 404 when asked of the other — and an
// unregistered document is a 404.
func TestDocumentIsolation(t *testing.T) {
	s := New(Config{})
	dA := viewjoin.GenerateXMark(0.05)
	dB := viewjoin.GenerateNasa(60)
	for _, reg := range []struct {
		name  string
		d     *viewjoin.Document
		views string
	}{{"acme/doc", dA, testViews}, {"globex/doc", dB, "//field//para"}} {
		if err := s.AddDocument(reg.name, reg.d); err != nil {
			t.Fatal(err)
		}
		for _, p := range saveTestViews(t, reg.d, reg.views, viewjoin.SchemeLEp) {
			if err := s.AddViewFile(reg.name, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wantA := len(viewjoin.EvaluateDirect(dA, viewjoin.MustParseQuery("//site//item//name")).Matches)
	wantB := len(viewjoin.EvaluateDirect(dB, viewjoin.MustParseQuery("//field//para")).Matches)

	var resp queryResponse
	if code := post(t, ts, "/query",
		queryRequest{Document: "acme/doc", Query: "//site//item//name", Views: []string{"//site//item//name"}},
		&resp); code != http.StatusOK || resp.MatchCount != wantA {
		t.Fatalf("acme/doc: status %d, %d matches (want %d)", code, resp.MatchCount, wantA)
	}
	if code := post(t, ts, "/query",
		queryRequest{Document: "globex/doc", Query: "//field//para", Views: []string{"//field//para"}},
		&resp); code != http.StatusOK || resp.MatchCount != wantB {
		t.Fatalf("globex/doc: status %d, %d matches (want %d)", code, resp.MatchCount, wantB)
	}
	// globex/doc has no //site//item//name view; asking for acme/doc's view
	// there must fail at resolve rather than reach the other document.
	var e errorResponse
	if code := post(t, ts, "/query",
		queryRequest{Document: "globex/doc", Query: "//site//item//name", Views: []string{"//site//item//name"}},
		&e); code != http.StatusNotFound || e.Stage != "resolve" {
		t.Fatalf("view of another document: status %d stage %q, want 404 at resolve", code, e.Stage)
	}
	if code := post(t, ts, "/query",
		queryRequest{Document: "doc", Query: "//field//para"}, &e); code != http.StatusNotFound || e.Stage != "resolve" {
		t.Fatalf("unknown document: status %d stage %q, want 404 at resolve", code, e.Stage)
	}
}

// TestFileMappedOnceAtRegistration: a view file is mapped when it is
// registered, and that one mapping serves every request — eight concurrent
// first requests find it in place and leave it in place (-race watches the
// registry they share). /documents and /debug/plans report the tier.
func TestFileMappedOnceAtRegistration(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	s := newFileBackedServer(t, Config{Workers: 4, QueueDepth: 8}, paths)
	defer s.Close()
	registered := map[string]*viewjoin.MaterializedView{}
	for name, ve := range s.docs["xmark"].views {
		if ve.mv == nil || ve.path == "" {
			t.Fatalf("view %s not mapped at registration: %+v", name, ve)
		}
		registered[name] = ve.mv
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	want := len(viewjoin.EvaluateDirect(d, viewjoin.MustParseQuery(testQuery)).Matches)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var resp queryResponse
			if code := post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery}, &resp); code != http.StatusOK || resp.MatchCount != want {
				t.Errorf("first request: status %d, %d matches (want %d)", code, resp.MatchCount, want)
			}
		}()
	}
	wg.Wait()
	for name, ve := range s.docs["xmark"].views {
		if ve.mv != registered[name] {
			t.Errorf("view %s was reloaded after registration", name)
		}
	}
	if vm := getMetrics(t, ts).Views; vm.FileViews != len(paths) || vm.MemoryViews != 0 {
		t.Errorf("view gauges: %+v, want %d file views", vm, len(paths))
	}
	for _, row := range getPlans(t, ts).Views {
		if row.Tier != "file" || row.SizeBytes == 0 {
			t.Errorf("/debug/plans view row: %+v, want tier file", row)
		}
	}
	resp, err := http.Get(ts.URL + "/documents")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var docs []documentInfo
	if err := json.NewDecoder(resp.Body).Decode(&docs); err != nil {
		t.Fatal(err)
	}
	for _, v := range docs[0].Views {
		if v.Tier != "file" || v.Scheme != "LEp" || v.Entries == 0 {
			t.Errorf("/documents view: %+v, want tier file", v)
		}
	}
}

// TestServerCloseIdempotent: Close after serving unmaps every view file
// without error, and a second Close is a no-op.
func TestServerCloseIdempotent(t *testing.T) {
	d := viewjoin.GenerateXMark(0.05)
	paths := saveTestViews(t, d, testViews, viewjoin.SchemeLEp)
	s := newFileBackedServer(t, Config{}, paths)
	ts := httptest.NewServer(s.Handler())
	var resp queryResponse
	post(t, ts, "/query", queryRequest{Document: "xmark", Query: testQuery}, &resp)
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
