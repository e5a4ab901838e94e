// Package viewjoin is a from-scratch Go implementation of ViewJoin (Chen &
// Chan, ICDE 2010): efficient view-based evaluation of tree pattern
// queries over XML, together with the storage schemes and baseline
// algorithms the paper evaluates.
//
// The library answers tree pattern queries (the XPath fragment with /, //
// and []) over XML documents using materialized views:
//
//   - four physical storage schemes for materialized views: tuple (T),
//     element (E), linked-element (LE) and partial linked-element (LEp);
//   - four evaluation engines: ViewJoin (the paper's contribution),
//     TwigStack, PathStack and InterJoin;
//   - the paper's cost-based view selection heuristic (§V);
//   - deterministic XMark-like and Nasa-like dataset generators and the
//     full experiment harness regenerating the paper's tables and figures
//     (package internal/experiments, cmd/vjbench).
//
// # Quickstart
//
//	doc, _ := viewjoin.ParseDocumentString(xmlData)
//	query, _ := viewjoin.ParseQuery("//a[//f]//b//e")
//	views, _ := viewjoin.ParseViews("//a//e; //b; //f")
//	mv, _ := doc.MaterializeViews(views, viewjoin.SchemeLEp)
//	res, _ := viewjoin.Evaluate(nil, doc, query, mv, viewjoin.EngineViewJoin, nil)
//	for _, m := range res.Matches {
//	    ... // one binding per query node
//	}
package viewjoin

import (
	"context"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viewjoin/internal/counters"
	"viewjoin/internal/dataset/nasa"
	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/match"
	"viewjoin/internal/obs"
	"viewjoin/internal/oracle"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/views"
	"viewjoin/internal/vsq"
	"viewjoin/internal/xmltree"
)

// Document is an XML document as a region-labelled element tree. A
// Document is a handle over an immutable snapshot chain: Apply installs a
// new snapshot (epoch+1) without touching the old one, so views, prepared
// queries and in-flight evaluations opened against an earlier epoch keep
// reading a consistent tree. All methods are safe for concurrent use; the
// single writer (Apply) is serialized internally.
type Document struct {
	w   sync.Mutex // serializes Apply and view maintenance
	cur atomic.Pointer[docSnap]
}

// docSnap is one immutable document snapshot: the tree plus the update
// epoch that produced it (0 for a freshly parsed or generated document).
type docSnap struct {
	tree  *xmltree.Document
	epoch uint64
}

// newDocument wraps a tree in a fresh handle at epoch 0.
func newDocument(t *xmltree.Document) *Document {
	d := &Document{}
	d.cur.Store(&docSnap{tree: t})
	return d
}

// snap returns the current immutable snapshot.
func (d *Document) snap() *docSnap { return d.cur.Load() }

// tree returns the current snapshot's tree.
func (d *Document) tree() *xmltree.Document { return d.snap().tree }

// Epoch returns the number of updates applied to the document: 0 for a
// freshly parsed or generated document, incremented by every successful
// Apply. Views record the epoch they reflect, so a comparison against the
// document epoch tells whether a view is stale.
func (d *Document) Epoch() uint64 { return d.snap().epoch }

// ParseDocument parses an XML document from r. Only element structure is
// retained; text, attributes and comments are ignored (tree pattern
// queries match structure only), and an element's type is the local part of
// its name. It accepts and rejects exactly what encoding/xml does in Strict
// mode with no CharsetReader (UTF-8 input only), streams r through a window
// of at most 64 KiB, and returns errors that start with "xmltree: parse:"
// and name the line (xmltree.Parse).
func ParseDocument(r io.Reader) (*Document, error) {
	d, err := xmltree.Parse(r)
	if err != nil {
		return nil, err
	}
	return newDocument(d), nil
}

// ParseDocumentString parses an XML document from a string.
func ParseDocumentString(s string) (*Document, error) {
	d, err := xmltree.ParseString(s)
	if err != nil {
		return nil, err
	}
	return newDocument(d), nil
}

// GenerateXMark builds a deterministic XMark-like auction document.
// scale = 1.0 corresponds to the paper's standard ~100MB document in shape
// (see DESIGN.md for the substitution notes); size grows linearly.
func GenerateXMark(scale float64) *Document {
	return newDocument(xmark.Scale(scale))
}

// GenerateNasa builds a deterministic Nasa-like document with the skewed
// element distribution of the paper's real dataset. datasets <= 0 selects
// the default size (≈ the paper's 23MB document in shape).
func GenerateNasa(datasets int) *Document {
	return newDocument(nasa.Generate(nasa.Config{Datasets: datasets}))
}

// NumNodes returns the number of element nodes in the current snapshot.
func (d *Document) NumNodes() int { return d.tree().NumNodes() }

// NumPieces returns the size of the current snapshot's piece table: 1 for
// a document never updated, growing by up to two per Apply until the table
// is written out flat again (DESIGN.md, "Document snapshots").
func (d *Document) NumPieces() int { return d.tree().NumPieces() }

// WriteXML serializes the current snapshot's element structure as XML.
func (d *Document) WriteXML(w io.Writer) error { return xmltree.Write(w, d.tree()) }

// Node describes one element node in a result by its region label (Start,
// End, Level int32). It is the cell type the engines write result rows in,
// so a Result is handed over without conversion. A node's tag is its query
// node's label: column i of every row is tagged Query.Labels()[i]. A Node
// holds no pointer, so a result's cells cost the garbage collector nothing
// to scan.
type Node = match.Cell

// Query is a parsed tree pattern query.
type Query struct {
	p *tpq.Pattern
}

// ParseQuery parses a TPQ in the XPath fragment {/, //, []}, e.g.
// "//a/b[//c/d]//e". Patterns must not repeat element types (the paper's
// assumption, §II).
func ParseQuery(s string) (*Query, error) {
	p, err := tpq.Parse(s)
	if err != nil {
		return nil, err
	}
	return &Query{p}, nil
}

// MustParseQuery is ParseQuery but panics on error.
func MustParseQuery(s string) *Query {
	q, err := ParseQuery(s)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the query back in XPath syntax.
func (q *Query) String() string { return q.p.String() }

// NumNodes returns the number of query nodes.
func (q *Query) NumNodes() int { return q.p.Size() }

// IsPath reports whether the query has no branching.
func (q *Query) IsPath() bool { return q.p.IsPath() }

// Labels returns the element type of each query node, in pattern pre-order
// — the same order used for match bindings.
func (q *Query) Labels() []string {
	out := make([]string, q.p.Size())
	for i := range q.p.Nodes {
		out[i] = q.p.Nodes[i].Label
	}
	return out
}

// ParseViews parses a semicolon-separated list of view patterns, e.g.
// "//a//e; //b[//c/d]; //f".
func ParseViews(s string) ([]*Query, error) {
	ps, err := tpq.ParseAll(s)
	if err != nil {
		return nil, err
	}
	out := make([]*Query, len(ps))
	for i, p := range ps {
		out[i] = &Query{p}
	}
	return out, nil
}

// StorageScheme selects a physical layout for materialized views (§I,
// §III of the paper).
type StorageScheme int

const (
	// SchemeTuple is InterJoin's tuple scheme: one record per view match.
	SchemeTuple StorageScheme = iota
	// SchemeElement stores per-node solution lists without pointers.
	SchemeElement
	// SchemeLE is the linked-element scheme: solution lists plus all
	// child/descendant/following pointers (§III-B).
	SchemeLE
	// SchemeLEp is the partial linked-element scheme (§III-C).
	SchemeLEp
)

// String names the scheme as in the paper.
func (s StorageScheme) String() string { return s.kind().String() }

// ParseScheme resolves a scheme's name, as String spells it, in any case.
func ParseScheme(s string) (StorageScheme, error) {
	u := strings.ToUpper(s)
	for sc := SchemeTuple; sc <= SchemeLEp; sc++ {
		if u == strings.ToUpper(sc.String()) {
			return sc, nil
		}
	}
	return 0, fmt.Errorf("unknown scheme %q (want E, LE, LEp, T)", s)
}

func (s StorageScheme) kind() store.Kind {
	switch s {
	case SchemeTuple:
		return store.Tuple
	case SchemeElement:
		return store.Element
	case SchemeLE:
		return store.Linked
	default:
		return store.LinkedPartial
	}
}

// MaterializedView is one view materialized over a document and laid out
// on the simulated paged store. Like its Document, a view is a handle over
// an immutable state chain: Maintain installs a freshly derived successor
// store without touching the published one, so concurrent readers and
// prepared queries keep a consistent snapshot.
type MaterializedView struct {
	doc     *Document
	pattern *tpq.Pattern
	// loaded marks a view whose pages alias a container image (the caller's
	// bytes or a file's mapping) instead of being derived in memory; file
	// is that mapping for LoadViewMmap views, nil otherwise — Release
	// unwinds it, and plans over it guard their reads against faults.
	loaded bool
	file   *store.Mapping
	state  atomic.Pointer[viewState]
}

// viewState is one immutable published state of a view: the store and the
// document snapshot it reflects. A view is only its store: fresh, loaded
// and maintained views answer every question from it alike. sizes caches
// ListSizes, computed on first use (a tuple store must be scanned for it).
type viewState struct {
	tree  *xmltree.Document
	epoch uint64
	store *store.ViewStore

	sizesOnce sync.Once
	sizes     []int
}

// st returns the view's current immutable state.
func (v *MaterializedView) st() *viewState { return v.state.Load() }

// newView publishes a view's initial state over one document snapshot.
func newView(doc *Document, snap *docSnap, pattern *tpq.Pattern, st *store.ViewStore) *MaterializedView {
	v := &MaterializedView{doc: doc, pattern: pattern}
	v.state.Store(&viewState{tree: snap.tree, epoch: snap.epoch, store: st})
	return v
}

// MaterializeOptions tunes view materialization.
type MaterializeOptions struct {
	// PageSize is the simulated page size in bytes; 0 means 4096.
	PageSize int
}

// MaterializeView computes the view's matches over the document and lays
// the result out in the given storage scheme.
func (d *Document) MaterializeView(view *Query, scheme StorageScheme, opts *MaterializeOptions) (*MaterializedView, error) {
	return d.materializeViewAt(d.snap(), view, scheme, opts)
}

// materializeViewAt materializes over one captured snapshot, so a view set
// built concurrently with updates still binds to a single epoch.
func (d *Document) materializeViewAt(snap *docSnap, view *Query, scheme StorageScheme, opts *MaterializeOptions) (*MaterializedView, error) {
	pageSize := 0
	if opts != nil {
		pageSize = opts.PageSize
	}
	mat, err := views.Materialize(snap.tree, view.p)
	if err != nil {
		return nil, err
	}
	st, err := store.Build(mat, scheme.kind(), pageSize)
	if err != nil {
		return nil, err
	}
	return newView(d, snap, view.p, st), nil
}

// MaterializeViews materializes a whole view set in one scheme. The views
// are materialized concurrently across a worker pool bounded by GOMAXPROCS;
// the output order always matches the input order, and on failure the error
// of the lowest-indexed failing view is returned, so the result is
// deterministic regardless of scheduling.
func (d *Document) MaterializeViews(views []*Query, scheme StorageScheme) ([]*MaterializedView, error) {
	snap := d.snap()
	out := make([]*MaterializedView, len(views))
	errs := make([]error, len(views))
	parallelFor(len(views), func(i int) {
		mv, err := d.materializeViewAt(snap, views[i], scheme, nil)
		if err != nil {
			errs[i] = fmt.Errorf("view %s: %w", views[i], err)
			return
		}
		out[i] = mv
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Pattern returns the view's pattern.
func (v *MaterializedView) Pattern() *Query { return &Query{v.pattern} }

// Scheme returns the view's storage scheme.
func (v *MaterializedView) Scheme() StorageScheme {
	switch v.st().store.Kind {
	case store.Tuple:
		return SchemeTuple
	case store.Element:
		return SchemeElement
	case store.Linked:
		return SchemeLE
	default:
		return SchemeLEp
	}
}

// Epoch returns the document epoch the view's published store reflects.
// It equals the owning document's Epoch exactly when the view is current;
// Maintain advances it.
func (v *MaterializedView) Epoch() uint64 { return v.st().epoch }

// SizeBytes returns the on-disk size (page-granular).
func (v *MaterializedView) SizeBytes() int64 { return v.st().store.SizeBytes() }

// NumPointers returns the number of materialized pointers (0 for T/E).
func (v *MaterializedView) NumPointers() int { return v.st().store.NumPointers() }

// NumPieces returns the piece count of the view's largest list: 1 for a
// view materialized or loaded flat, growing with every Maintain until the
// lists are written out flat again (DESIGN.md, "Region-local
// maintenance").
func (v *MaterializedView) NumPieces() int { return v.st().store.NumPieces() }

// NumEntries returns the number of records (list entries, or tuples for
// the tuple scheme).
func (v *MaterializedView) NumEntries() int { return v.st().store.TotalEntries() }

// ListSizes returns |L_q| per view node — the inputs of the §V cost model
// — read from the view's store, so fresh, loaded and maintained views
// answer alike. An element-family view counts its list entries; a tuple
// view, which stores whole matches, counts the distinct elements each
// column binds, scanned once per published state. It is nil only when a
// mapped tuple view's file faults under the scan.
func (v *MaterializedView) ListSizes() []int {
	s := v.st()
	s.sizesOnce.Do(func() { s.sizes = s.listSizes(v.file != nil) })
	return slices.Clone(s.sizes)
}

// listSizes computes ListSizes; mapped says the store's pages are a file
// mapping, read under the fault guard every plan over one uses.
func (s *viewState) listSizes(mapped bool) (sizes []int) {
	if s.store.Tuples == nil {
		sizes = make([]int, len(s.store.Lists))
		for i, l := range s.store.Lists {
			sizes[i] = l.Entries()
		}
		return sizes
	}
	if mapped {
		var err error // a fault leaves sizes nil
		defer catchViewFault(debug.SetPanicOnFault(true), &err)
	}
	return s.store.Tuples.DistinctStarts()
}

// Engine selects an evaluation algorithm.
type Engine int

const (
	// EngineViewJoin is the paper's algorithm (§IV); requires E/LE/LEp
	// views.
	EngineViewJoin Engine = iota
	// EngineTwigStack is the holistic twig join baseline; requires E/LE/LEp
	// views (pointers are ignored).
	EngineTwigStack
	// EnginePathStack is the structural join baseline for path queries;
	// requires E/LE/LEp views.
	EnginePathStack
	// EngineInterJoin evaluates path queries over tuple-scheme path views.
	EngineInterJoin
)

// String names the engine as in the paper's experiments.
func (e Engine) String() string {
	switch e {
	case EngineViewJoin:
		return "VJ"
	case EngineTwigStack:
		return "TS"
	case EnginePathStack:
		return "PS"
	case EngineInterJoin:
		return "IJ"
	default:
		return fmt.Sprintf("Engine(%d)", int(e))
	}
}

// ParseEngine resolves an engine's name, as String spells it, in any case.
func ParseEngine(s string) (Engine, error) {
	u := strings.ToUpper(s)
	for e := EngineViewJoin; e <= EngineInterJoin; e++ {
		if u == e.String() {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want VJ, TS, PS, IJ)", s)
}

// Stats reports the deterministic cost of an evaluation.
type Stats struct {
	// Counters is the run's cost record, the one the engines fill and
	// vjserve aggregates; its fields read as Stats' own:
	// ElementsScanned (records decoded from view lists), Comparisons
	// (structural comparisons), PointerDerefs (materialized pointers
	// followed), PagesRead / PagesWritten (simulated page I/O),
	// JumpsTaken / JumpsRefused (pointer jumps followed and refused; zero
	// for engines without them) and Matches (the rows the run kept, so
	// len(Result.Matches)).
	counters.Counters
	// PageHits is always 0: there is no buffer pool, every page touch is a
	// read.
	//
	// Pinned: benchmark/ reads the field, which must not change outside a
	// [benchmark] PR.
	//
	// Deprecated: always 0; count page touches with PagesRead.
	PageHits int64
	// PeakMemoryBytes estimates the largest in-memory intermediate state
	// (the paper's |F_max|); 0 for engines that do not track it.
	PeakMemoryBytes int64
	// Duration is the wall-clock evaluation time.
	Duration time.Duration
	// FirstMatchNanos is the wall-clock time from the start of the run to
	// the first match produced (time-to-first-match), in nanoseconds; 0
	// when the run produced no match. For the streaming engines (ViewJoin,
	// TwigStack) it stays flat as the total match count grows; the
	// sort-before-output engines (PathStack, InterJoin) cannot deliver
	// before their final sort, so their TTFM tracks the full run.
	FirstMatchNanos int64
}

// Result is the answer to a query: all tree pattern instances, one node
// binding per query node (every query node is an output node, §II).
type Result struct {
	// Matches holds one row per embedding; row[i] binds query node i, so
	// its tag is Query.Labels()[i]. The rows are windows over chunks of
	// pointer-free cells the run allocated for this Result alone — nothing
	// pooled, nothing shared with another Result — and neighbouring rows
	// share a chunk: each row is capacity-capped, so appending to one
	// reallocates it instead of overwriting the next, and mutating a row's
	// cells changes that row only. Holding any row keeps its whole chunk (at
	// most 64 KiB) alive.
	Matches [][]Node
	Stats   Stats
	// Trace is the observability report of the run: plan, per-phase
	// durations and the run's counters. It is nil unless
	// the run had a recorder (RunOptions.Tracer).
	Trace *obs.Report
}

// Evaluate answers q over the materialized views using the chosen engine.
// The views must form a valid minimal covering set of q (subpatterns of q
// with pairwise disjoint element types, together covering every query
// node); InterJoin additionally requires path views of q in the tuple
// scheme, while the other engines require element-family schemes.
// Evaluate is one-shot Prepare + RunWith(ctx, ro): Stats.Duration covers
// the whole call (preparation included) and the counters fold in any
// preparation-time costs, so a repeated query is better served by
// preparing once and running the plan. ro.Tracer observes preparation too.
func Evaluate(ctx context.Context, d *Document, q *Query, mviews []*MaterializedView, eng Engine, ro *RunOptions) (*Result, error) {
	r := resolve(ctx, ro)
	p, err := Prepare(d, q, mviews, eng, r.Tracer)
	if err != nil {
		return nil, err
	}
	r.includePrep = true
	return p.execute(r)
}

// CanceledError reports an evaluation aborted by its context (cancellation
// or deadline expiry). No partial results accompany it: the run's output is
// discarded and its pooled scratch is recycled. Unwrap yields the context's
// error, so errors.Is(err, context.DeadlineExceeded) and
// errors.Is(err, context.Canceled) work as usual.
type CanceledError struct {
	// Engine and Query identify the aborted evaluation.
	Engine Engine
	Query  string
	// Cause is the context's error (context.Canceled or
	// context.DeadlineExceeded).
	Cause error
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("viewjoin: evaluation of %s via %s aborted: %v", e.Query, e.Engine, e.Cause)
}

// Unwrap exposes the context error for errors.Is.
func (e *CanceledError) Unwrap() error { return e.Cause }

// contextInterrupt builds the cooperative-cancellation hook the engines
// poll. Besides ctx.Err() it compares any deadline against the wall clock
// directly: on a single-CPU machine the context's timer goroutine can be
// starved by the evaluation loop, leaving ctx.Err() nil long past expiry,
// whereas a direct clock read trips at the next poll regardless of
// scheduling. The query is rendered for the error only: a run that is not
// interrupted never pays for its text.
func contextInterrupt(ctx context.Context, eng Engine, q *Query) func() error {
	dl, hasDL := ctx.Deadline()
	return func() error {
		cerr := ctx.Err()
		if cerr == nil && hasDL && !time.Now().Before(dl) {
			cerr = context.DeadlineExceeded
		}
		if cerr != nil {
			return &CanceledError{Engine: eng, Query: q.String(), Cause: cerr}
		}
		return nil
	}
}

// basePlan describes q evaluated by eng over the given views, with every
// node unbound (View, ViewNode, Segment and ListEntries -1): each engine's
// describer fills in what its plan binds.
func basePlan(q *tpq.Pattern, eng Engine, patterns []*tpq.Pattern, stores []*store.ViewStore) *obs.Plan {
	p := &obs.Plan{
		Query:  q.String(),
		Engine: eng.String(),
		Nodes:  make([]obs.PlanNode, q.Size()),
	}
	if len(stores) > 0 {
		p.Scheme = stores[0].Kind.String()
	}
	for _, vp := range patterns {
		p.Views = append(p.Views, vp.String())
	}
	for qi := range p.Nodes {
		p.Nodes[qi] = obs.PlanNode{
			Index:       qi,
			Label:       q.Nodes[qi].Label,
			Axis:        q.Nodes[qi].Axis.String(),
			Parent:      q.Nodes[qi].Parent,
			View:        -1,
			ViewNode:    -1,
			Segment:     -1,
			ListEntries: -1,
		}
	}
	return p
}

// tracePlan translates a view-segmented query into the plain-data plan the
// observability layer renders.
func tracePlan(q *tpq.Pattern, patterns []*tpq.Pattern, stores []*store.ViewStore, eng Engine, v *vsq.VSQ) *obs.Plan {
	p := basePlan(q, eng, patterns, stores)
	p.NumSegments = len(v.Segments)
	for qi := range p.Nodes {
		n := &p.Nodes[qi]
		n.View, n.ViewNode = v.Owner[qi], v.ViewNode[qi]
		if v.InQPrime[qi] {
			n.Segment = v.SegOf[qi]
			n.SegmentRoot = v.Segments[n.Segment].Root == qi
			n.InterView = v.PrimeParent[qi] >= 0 && v.InterView[qi]
		}
		if vi, ni := n.View, n.ViewNode; vi >= 0 && ni >= 0 &&
			stores[vi].Kind != store.Tuple && ni < len(stores[vi].Lists) {
			n.ListEntries = stores[vi].Lists[ni].Entries()
		}
	}
	return p
}

// interJoinPlan builds the plan for the segment-free InterJoin engine.
func interJoinPlan(q *tpq.Pattern, patterns []*tpq.Pattern, stores []*store.ViewStore, viewPos [][]int) *obs.Plan {
	p := basePlan(q, EngineInterJoin, patterns, stores)
	for vi, positions := range viewPos {
		for j, qi := range positions {
			p.Nodes[qi].View = vi
			p.Nodes[qi].ViewNode = j
			if stores[vi].Tuples != nil {
				p.Nodes[qi].ListEntries = stores[vi].Tuples.Entries()
			}
		}
	}
	return p
}

// EvaluateDirect answers q by brute force without views — the reference
// evaluator, useful for validating view-based plans.
func EvaluateDirect(d *Document, q *Query) *Result {
	t := d.tree()
	ms := oracle.Eval(t, q.p)
	res := &Result{Matches: make([][]Node, len(ms))}
	for i, m := range ms {
		row := make([]Node, len(m))
		for j, id := range m {
			n := t.Node(id)
			row[j] = Node{Start: n.Start, End: n.End, Level: n.Level}
		}
		res.Matches[i] = row
	}
	return res
}

// ValidateViewSet checks that the views form a valid covering set for q
// under the paper's assumptions.
func ValidateViewSet(q *Query, views []*Query) error {
	ps := make([]*tpq.Pattern, len(views))
	for i, v := range views {
		ps[i] = v.p
	}
	return tpq.ValidateViewSet(ps, q.p)
}

// InterViewEdges counts the inter-view edges of q w.r.t. the view set —
// the paper's measure of interleaving complexity (Table III).
func InterViewEdges(q *Query, views []*Query) int {
	ps := make([]*tpq.Pattern, len(views))
	for i, v := range views {
		ps[i] = v.p
	}
	return tpq.InterViewEdges(ps, q.p)
}
