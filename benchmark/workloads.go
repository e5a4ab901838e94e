package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"viewjoin"
	"viewjoin/internal/obs"
	"viewjoin/internal/server"
)

// workloadDef is one benchmark workload. Op counts per round are fixed
// (not time-bounded), so a round does the same work on every commit and
// its counts repeat exactly; how many rounds run is what --seconds sets.
type workloadDef struct {
	name  string
	why   string
	nasa  bool // document family
	setup func(cfg config, in *instance) error
}

// The workload names are fixed: later issues refer to them.
var workloads = []workloadDef{
	{name: "xmark-full", why: "library, 14 XMark plans returning full result sets: output-dominated (enumerate+output over half the run)",
		setup: func(cfg config, in *instance) error { return setupLibrary(cfg, in, 6) }},
	{name: "nasa-selective", why: "library, 10 Nasa plans with few matches per scanned record: join-dominated, the contrast pair to xmark-full", nasa: true,
		setup: func(cfg config, in *instance) error { return setupLibrary(cfg, in, 10) }},
	{name: "serve-page", why: "server, 2 clients paging limit=20 through cursors: handler stack over half of each request, engines scan a few pages",
		setup: func(cfg config, in *instance) error { return setupServer(cfg, in, 20, 5, 60) }},
	{name: "serve-full", why: "server, 2 clients fetching full JSON result sets: row conversion and encoding dominate, megabytes allocated per request",
		setup: func(cfg config, in *instance) error { return setupServer(cfg, in, 1000000, 1, 2) }},
	{name: "update-mixed", why: "server, 1 client, 8 paged reads then 1 /update per cycle: Apply, Maintain of every view, plan invalidation and re-prepare beside reads",
		setup: func(cfg config, in *instance) error { return setupUpdateMixed(cfg, in, 18) }},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// instance is one set-up of a workload: inputs generated, views
// materialized, plans prepared or server registered, warmed up.
type instance struct {
	def     *workloadDef
	cat     []catQuery
	classes []string // op class -> catalogue query name
	doc     *viewjoin.Document
	vc      *viewCache
	views   []*viewjoin.MaterializedView // the workload's own views, for view_store_mb
	plans   []*plan                      // VJ+LEp; built by set-up (library) or by verify (server)
	srv     *server.Server
	walks   []*walk
	upd     *updater
	clients int
	round   func(client int, rec *clientRec)

	xml              []byte // kept only for the traced pass's probes
	genDur, parseDur time.Duration
	nodes            int
}

func (in *instance) close() {
	if in.srv != nil {
		in.srv.Close()
	}
}

// setupInputs generates the workload's document from the seed, hands it to
// the program as XML text, and materializes the catalogue's views in LEp.
func setupInputs(cfg config, in *instance) error {
	t0 := time.Now()
	var err error
	if in.def.nasa {
		in.cat = nasaCatalogue()
		in.xml, err = nasaXML(cfg.sizes.nasaDatasets, cfg.seed)
	} else {
		in.cat = xmarkCatalogue()
		in.xml, err = xmarkXML(cfg.sizes.xmarkScale, cfg.seed)
	}
	if err != nil {
		return err
	}
	in.genDur = time.Since(t0)
	t0 = time.Now()
	in.doc, err = viewjoin.ParseDocument(bytes.NewReader(in.xml))
	if err != nil {
		return fmt.Errorf("parse document: %w", err)
	}
	in.parseDur, in.nodes = time.Since(t0), in.doc.NumNodes()
	if !cfg.trace {
		in.xml = nil
	}
	in.vc = newViewCache(in.doc)
	for _, c := range in.cat {
		in.classes = append(in.classes, c.name)
	}
	return nil
}

// setupLibrary prepares every catalogue query for ViewJoin over LEp views;
// a round is sweeps round-robin passes over the plans on one goroutine.
func setupLibrary(cfg config, in *instance, sweeps int) error {
	if err := setupInputs(cfg, in); err != nil {
		return err
	}
	var err error
	in.plans, err = buildPlans(in.vc, in.cat, viewjoin.SchemeLEp, viewjoin.EngineViewJoin, false)
	if err != nil {
		return err
	}
	in.views = in.vc.order
	in.clients = 1
	sweeps = max(sweeps/cfg.sizes.div, 1)
	in.round = func(_ int, rec *clientRec) { sweepPlans(in.plans, sweeps, rec) }
	sweepPlans(in.plans, 1, &clientRec{}) // warm-up: pools filled
	return nil
}

// sweepPlans runs every plan sweeps times, round-robin.
func sweepPlans(plans []*plan, sweeps int, rec *clientRec) {
	for s := 0; s < sweeps; s++ {
		for i, p := range plans {
			rec.runPlan(i, p)
		}
	}
}

// runPlan is one library operation: PreparedQuery.Run, checked against the
// verified match count. Traced, it runs under the program's own obs.Recorder and lays the recorder's
// phase self-times out as child spans of the run.
func (rec *clientRec) runPlan(class int, p *plan) *viewjoin.Result {
	ok := func(res *viewjoin.Result, err error) bool { return err == nil && len(res.Matches) == p.count }
	if rec.tr == nil {
		t := time.Now()
		res, err := p.prepared.Run()
		rec.observe(class, time.Since(t), ok(res, err))
		return res
	}
	eng := engineLayer[p.prepared.Engine()]
	op, opSpan, run := rec.beginOp("run." + eng)
	t := time.Now()
	res, err := p.prepared.RunTraced(context.Background(), 1, obs.NewRecorder())
	lat := time.Since(t)
	rec.tr.end(run)
	if err == nil && res.Trace != nil {
		at := rec.tr.start(run)
		for _, ph := range res.Trace.Phases {
			if name, ok := phaseSpan(ph.Phase, eng); ok && ph.Nanos > 0 {
				rec.tr.add(name, run, op, at, at+ph.Nanos)
				at += ph.Nanos
			}
		}
	}
	rec.tr.end(opSpan)
	rec.observe(class, lat, ok(res, err))
	return res
}

// engineLayer names the engine modules as the layer metrics do.
var engineLayer = map[viewjoin.Engine]string{
	viewjoin.EngineViewJoin:  "viewjoin",
	viewjoin.EngineTwigStack: "twigstack",
	viewjoin.EnginePathStack: "pathstack",
	viewjoin.EngineInterJoin: "interjoin",
}

// phaseSpan maps an obs phase of a prepared run to the layer it belongs
// to: the engine's join loop, the shared enumeration stage, or the root
// package's result building.
func phaseSpan(phase, eng string) (string, bool) {
	switch phase {
	case obs.PhaseEvaluate.String():
		return "engine." + eng + ".evaluate", true
	case obs.PhaseEnumerate.String():
		return "enum." + eng, true
	case obs.PhaseOutput.String():
		return "output." + eng, true
	}
	return "", false
}

// walk is one query as a serving client issues it: a request prefix and
// the pages to follow through the returned cursor.
type walk struct {
	class  int
	prefix []byte // request JSON up to the limit field; cursor and brace are appended
	limit  int
	pages  int
	total  int // verified full match count
}

// want is the match_count page page must report.
func (w *walk) want(page int) int {
	return min(w.limit, max(0, w.total-page*w.limit))
}

func newWalk(class int, c catQuery, limit, pages int) *walk {
	views, _ := json.Marshal(c.views)
	return &walk{class: class, limit: limit, pages: pages,
		prefix: []byte(fmt.Sprintf(`{"document":"doc","query":%q,"views":%s,"limit":%d`, c.query, views, limit))}
}

func (w *walk) body(cursor string) []byte {
	b := append([]byte(nil), w.prefix...)
	if cursor != "" {
		b = append(append(append(b, `,"cursor":"`...), cursor...), '"')
	}
	return append(b, '}')
}

// post sends one request to the in-process handler, the whole vjserve
// stack without sockets, and times the handler call.
func post(h http.Handler, path string, body []byte) (int, []byte, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	w := httptest.NewRecorder()
	t := time.Now()
	h.ServeHTTP(w, req)
	return w.Code, w.Body.Bytes(), time.Since(t)
}

// scalar returns the raw JSON scalar after the first (or last) "key": in
// body, without decoding the megabytes of rows around it. The server
// writes match_count before the rows and cursor, stats and duration_us
// after them.
func scalar(body []byte, key string, last bool) string {
	k := []byte(`"` + key + `":`)
	i := bytes.Index(body, k)
	if last {
		i = bytes.LastIndex(body, k)
	}
	if i < 0 {
		return ""
	}
	rest := body[i+len(k):]
	end := bytes.IndexAny(rest, ",}\n")
	if end < 0 {
		end = len(rest)
	}
	return strings.Trim(string(rest[:end]), `"`)
}

func intScalar(body []byte, key string, last bool) int64 {
	n, err := strconv.ParseInt(scalar(body, key, last), 10, 64)
	if err != nil {
		return -1
	}
	return n
}

// beginOp opens an operation's span and, inside it, the span of the layer
// it calls into; all -1 when tracing is off.
func (rec *clientRec) beginOp(layer string) (op, opSpan, layerSpan int) {
	if rec.tr == nil {
		return -1, -1, -1
	}
	op = rec.tr.newOp()
	opSpan = rec.tr.begin("op", rec.roundSpan, op)
	return op, opSpan, rec.tr.begin(layer, opSpan, op)
}

// query issues one page request; every page is one operation. It returns
// the response body and the cursor for the next page.
func (rec *clientRec) query(h http.Handler, w *walk, page int, cursor string) ([]byte, string) {
	op, opSpan, hs := rec.beginOp("server.handler")
	code, resp, lat := post(h, "/query", w.body(cursor))
	n := intScalar(resp, "match_count", false)
	rec.observe(w.class, lat, code == http.StatusOK && int(n) == w.want(page))
	if rec.tr != nil {
		rec.tr.end(hs)
		if engine := intScalar(resp, "duration_us", true); engine > 0 {
			at := rec.tr.start(hs)
			rec.tr.add("server.engine", hs, op, at, at+engine*1000)
		}
		rec.tr.end(opSpan)
		if n > 0 {
			rec.rows += n
			rec.bodyBytes += int64(len(resp))
		}
		if fm := intScalar(resp, "first_match_us", true); fm > 0 {
			rec.firstMatchUS = append(rec.firstMatchUS, float64(fm))
		}
		if scalar(resp, "cache", false) == "miss" {
			rec.missLat = append(rec.missLat, lat)
		}
	}
	return resp, scalar(resp, "cursor", true)
}

// follow walks w's pages through the returned cursors and returns the last
// page's body.
func (rec *clientRec) follow(h http.Handler, w *walk) []byte {
	var resp []byte
	cursor := ""
	for page := 0; page < w.pages; page++ {
		resp, cursor = rec.query(h, w, page, cursor)
		if cursor == "" {
			break
		}
	}
	return resp
}

// newServer builds a server with the default configuration over the
// instance's document and registers every view materialized so far.
func newServer(in *instance) error {
	in.srv = server.New(server.Config{})
	if err := in.srv.AddDocument("doc", in.doc); err != nil {
		return err
	}
	for _, mv := range in.vc.order {
		if err := in.srv.AddView("doc", mv); err != nil {
			return err
		}
	}
	in.views = in.vc.order
	return nil
}

// setupServer registers the XMark catalogue's views and has min(2, nproc)
// closed-loop clients walk the 14 queries page by page, sweeps times a
// round each.
func setupServer(cfg config, in *instance, limit, pages, sweeps int) error {
	if err := setupInputs(cfg, in); err != nil {
		return err
	}
	for i, c := range in.cat {
		for _, v := range c.views {
			if _, err := in.vc.get(v, viewjoin.SchemeLEp); err != nil {
				return err
			}
		}
		in.walks = append(in.walks, newWalk(i, c, limit, pages))
	}
	if err := newServer(in); err != nil {
		return err
	}
	in.clients = cfg.clients
	sweeps = max(sweeps/cfg.sizes.div, 1)
	h := in.srv.Handler()
	walkAll := func(rec *clientRec, sweeps int) {
		for s := 0; s < sweeps; s++ {
			for _, w := range in.walks {
				rec.follow(h, w)
			}
		}
	}
	in.round = func(_ int, rec *clientRec) { walkAll(rec, sweeps) }
	walkAll(&clientRec{}, 1) // warm-up: every plan prepared and cached
	return nil
}

// updater aims update-mixed's writes, by the seed, at rows the client just
// read, and logs them so the traced pass can replay the same
// sequence against the library.
type updater struct {
	rng   *rand.Rand
	epoch uint64
	log   []loggedUpdate
}

type loggedUpdate struct {
	op       viewjoin.UpdateOp
	target   int32
	fragment string
}

// Fragments spelled in the views' own vocabulary force membership
// re-derivation; the foreign one (a third of the inserts) touches no view
// label and takes Maintain's pure label-shift path.
const (
	itemFragment    = `<item><location/><quantity/><name/><description><text><keyword/></text></description></item>`
	childFragment   = `<description><text><keyword/><keyword/></text></description>`
	foreignFragment = `<ext><zline/><zline/></ext>`
)

// updateMix is the rotation of update kinds. It is fixed, so that every
// seed does the same kinds of work in the same order and the seed only
// chooses where in the document they land.
var updateMix = []loggedUpdate{
	{op: viewjoin.InsertBefore, fragment: itemFragment},
	{op: viewjoin.AppendChild, fragment: childFragment},
	{op: viewjoin.DeleteSubtree},
	{op: viewjoin.InsertBefore, fragment: foreignFragment},
	{op: viewjoin.AppendChild, fragment: childFragment},
	{op: viewjoin.DeleteSubtree},
	{op: viewjoin.InsertBefore, fragment: itemFragment},
	{op: viewjoin.AppendChild, fragment: foreignFragment},
	{op: viewjoin.DeleteSubtree},
}

// next aims the rotation's next update at an <item> of the last page read.
func (u *updater) next(page []byte) (loggedUpdate, error) {
	var resp struct {
		Matches [][]struct {
			Tag   string `json:"tag"`
			Start int32  `json:"start"`
		} `json:"matches"`
	}
	if err := json.Unmarshal(page, &resp); err != nil || len(resp.Matches) == 0 {
		return loggedUpdate{}, fmt.Errorf("no rows to pick an update target from (%v)", err)
	}
	lu := updateMix[len(u.log)%len(updateMix)]
	lu.target = -1
	for _, n := range resp.Matches[u.rng.Intn(len(resp.Matches))] {
		if n.Tag == "item" {
			lu.target = n.Start
		}
	}
	if lu.target < 0 {
		return lu, fmt.Errorf("row has no item binding")
	}
	u.log = append(u.log, lu)
	return lu, nil
}

// update posts one /update; it must answer 200 and advance the epoch by
// exactly one.
func (rec *clientRec) update(h http.Handler, u *updater, lu loggedUpdate) {
	body := []byte(fmt.Sprintf(`{"document":"doc","op":%q,"target":%d,"fragment":%q}`, lu.op.String(), lu.target, lu.fragment))
	_, opSpan, hs := rec.beginOp("server.update")
	code, resp, lat := post(h, "/update", body)
	if rec.tr != nil {
		rec.tr.end(hs)
		rec.tr.end(opSpan)
	}
	var ur struct {
		Epoch uint64 `json:"epoch"`
		Views []struct {
			FastPath    bool `json:"fast_path"`
			SharedPages int  `json:"shared_pages"`
			TotalPages  int  `json:"total_pages"`
			Compacted   bool `json:"compacted"`
		} `json:"views"`
	}
	err := json.Unmarshal(resp, &ur)
	u.epoch++
	rec.observe(-1, lat, code == http.StatusOK && err == nil && ur.Epoch == u.epoch)
	for _, v := range ur.Views {
		rec.maintains++
		rec.sharedPages += int64(v.SharedPages)
		rec.totalPages += int64(v.TotalPages)
		if v.FastPath {
			rec.fastPaths++
		}
		if v.Compacted {
			rec.compactions++
		}
	}
}

// setupUpdateMixed serves its own copy of the XMark document with only the
// five views of Q13 and Q14 registered in memory. One client runs cycles
// of eight paged reads (limit 50, four pages of each query) and one
// /update; the server and its document live across all rounds, so delta
// chains build up and compact (every 16th maintenance of a view).
func setupUpdateMixed(cfg config, in *instance, cycles int) error {
	if err := setupInputs(cfg, in); err != nil {
		return err
	}
	var served []catQuery
	for _, c := range in.cat {
		if c.name == "Q13" || c.name == "Q14" {
			served = append(served, c)
		}
	}
	in.cat, in.classes = served, []string{"Q13", "Q14"}
	for i, c := range in.cat {
		for _, v := range c.views {
			if _, err := in.vc.get(v, viewjoin.SchemeLEp); err != nil {
				return err
			}
		}
		// Every page must stay full whatever the updates delete, so that
		// its match count is known: the smoke configuration's document
		// only has room for small pages.
		in.walks = append(in.walks, newWalk(i, c, max(50/cfg.sizes.div, 5), 4))
	}
	if err := newServer(in); err != nil {
		return err
	}
	in.clients = 1
	in.upd = &updater{rng: rand.New(rand.NewSource(cfg.seed))}
	cycles = max(cycles/cfg.sizes.div, 2)
	h := in.srv.Handler()
	cycle := func(rec *clientRec) {
		var last []byte
		for _, w := range in.walks {
			last = rec.follow(h, w)
		}
		lu, err := in.upd.next(last)
		if err != nil {
			rec.observe(-1, 0, false)
			return
		}
		rec.update(h, in.upd, lu)
	}
	in.round = func(_ int, rec *clientRec) {
		for c := 0; c < cycles; c++ {
			cycle(rec)
		}
	}
	cycle(&clientRec{}) // warm-up: plans prepared, one update through every view
	return nil
}
