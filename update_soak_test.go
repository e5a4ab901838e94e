package viewjoin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/workload"
	"viewjoin/internal/xmltree"
)

// randomDocUpdate is randomPublicUpdate with fragment labels drawn from the
// given alphabet, so workload documents receive fragments spelled in their
// own vocabulary (hitting the view alphabets) as well as foreign tags
// (hitting the fast path).
func randomDocUpdate(rng *rand.Rand, d *Document, labels []string) Update {
	if rng.Intn(3) == 0 {
		labels = testutil.ForeignLabels
	}
	t := d.tree()
	u := testutil.RandomUpdate(rng, t, labels)
	var op UpdateOp
	switch u.Op {
	case xmltree.OpInsertBefore:
		op = InsertBefore
	case xmltree.OpAppendChild:
		op = AppendChild
	default:
		op = DeleteSubtree
	}
	pub := Update{Op: op, TargetStart: t.Node(u.Target).Start}
	if u.Fragment != nil {
		pub.Fragment = newDocument(u.Fragment)
	}
	return pub
}

// TestUpdateMetamorphicSoak is the update half of the metamorphic soak:
// every §VI benchmark query on xmark and nasa has its views materialized at
// epoch 0, a random update sequence is applied with every view maintained
// incrementally at each step, and at the end
//
//   - every maintained store must serialize byte-identically to a view
//     freshly materialized from the updated document,
//   - every engine's sequential run must agree with the brute-force oracle
//     over the updated document, and the paged entry points must
//     reproduce it byte for byte.
func TestUpdateMetamorphicSoak(t *testing.T) {
	type job struct {
		doc     *Document
		labels  []string
		queries []workload.Query
	}
	jobs := []job{
		{GenerateXMark(0.05),
			[]string{"item", "name", "keyword", "description", "listitem", "text", "bidder", "increase"},
			append(workload.XMarkPath(), workload.XMarkTwig()...)},
		{GenerateNasa(200),
			[]string{"dataset", "title", "field", "reference", "source", "author", "initial"},
			append(workload.NasaPath(), workload.NasaTwig()...)},
	}
	steps := 4
	if testing.Short() {
		steps = 2
	}
	rng := rand.New(rand.NewSource(11))
	for _, job := range jobs {
		type arm struct {
			wq    workload.Query
			c     soakCase
			q     *Query
			views []*Query
			mv    []*MaterializedView
		}
		var arms []arm
		for _, wq := range job.queries {
			q := &Query{wq.Pattern}
			views := make([]*Query, len(wq.Views))
			for i, v := range wq.Views {
				views[i] = &Query{v}
			}
			for _, c := range soakCases() {
				if c.path && !wq.Path {
					continue
				}
				mv, err := job.doc.MaterializeViews(views, c.scheme)
				if err != nil {
					t.Fatalf("%s/%v+%v: materialize: %v", wq.Name, c.eng, c.scheme, err)
				}
				arms = append(arms, arm{wq: wq, c: c, q: q, views: views, mv: mv})
			}
		}

		for i := 0; i < steps; i++ {
			u := randomDocUpdate(rng, job.doc, job.labels)
			au, err := job.doc.Apply(u)
			if err != nil {
				t.Fatalf("step %d: apply %v at %d: %v", i, u.Op, u.TargetStart, err)
			}
			for _, a := range arms {
				maintainAll(t, fmt.Sprintf("step %d %s/%v", i, a.wq.Name, a.c.eng), a.mv, au)
			}
		}

		oracle := make(map[string]*Result)
		for _, a := range arms {
			label := fmt.Sprintf("%s/%v+%v", a.wq.Name, a.c.eng, a.c.scheme)
			requireStoreEquality(t, label, a.mv, job.doc, a.views, a.c.scheme)
			want := oracle[a.wq.Name]
			if want == nil {
				want = EvaluateDirect(job.doc, a.q)
				oracle[a.wq.Name] = want
			}
			p, err := Prepare(job.doc, a.q, a.mv, a.c.eng, nil)
			if err != nil {
				t.Fatalf("%s: prepare: %v", label, err)
			}
			seq, err := p.Run()
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			if !sameMatches(seq, want) {
				t.Fatalf("%s: maintained run disagrees with oracle: %d vs %d matches",
					label, len(seq.Matches), len(want.Matches))
			}
			checkPagedEquivalence(t, label, p, seq)
		}
	}
}

// TestEpochPinning pins snapshot isolation end to end: a query prepared
// before an update keeps answering from the pre-update snapshot — its
// results never change, no matter how many updates and maintenance passes
// land after it — while a freshly prepared query sees the updated document.
func TestEpochPinning(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	doc := newDocument(testutil.RandomDoc(rng, 120, nil))
	q, err := ParseQuery("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	views, err := ParseViews("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := Prepare(doc, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	res0, err := p0.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p0.Epoch() != 0 {
		t.Fatalf("pre-update plan epoch = %d", p0.Epoch())
	}

	// Insert a subtree that adds matches: an <a><b/></a> under the root.
	frag, err := ParseDocumentString("<a><b/><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	root := doc.tree().Node(0).Start
	au, err := doc.Apply(Update{Op: AppendChild, TargetStart: root, Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}

	// Between Apply and Maintain, a fresh Prepare fails cleanly with the
	// epoch mismatch — the retryable signal vjserve's prepare loop rides.
	var em *EpochMismatchError
	if _, err := Prepare(doc, q, mv, EngineViewJoin, nil); !errors.As(err, &em) {
		t.Fatalf("Prepare against stale views: %v, want *EpochMismatchError", err)
	}

	maintainAll(t, "epoch-pin", mv, au)

	// The pre-update reader never observes post-update records.
	pinned, err := p0.Run()
	if err != nil {
		t.Fatalf("pinned run after update: %v", err)
	}
	if !identicalMatches(pinned, res0) {
		t.Fatalf("pinned plan changed its answer across an update: %d vs %d matches",
			len(pinned.Matches), len(res0.Matches))
	}

	// A fresh plan sees the insert.
	p1, err := Prepare(doc, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatalf("prepare at new epoch: %v", err)
	}
	res1, err := p1.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p1.Epoch() != 1 {
		t.Fatalf("post-update plan epoch = %d, want 1", p1.Epoch())
	}
	if len(res1.Matches) <= len(res0.Matches) {
		t.Fatalf("insert of matching subtree did not grow the result: %d -> %d",
			len(res0.Matches), len(res1.Matches))
	}
	if !sameMatches(res1, EvaluateDirect(doc, q)) {
		t.Fatal("post-update run disagrees with oracle")
	}
}

// TestPaginationAcrossEpoch pins cursor semantics across updates at the
// library level: a pagination started on a pre-update plan resumes
// consistently against that plan's snapshot (the update is invisible
// mid-pagination), and the same cursor positions applied to a post-update
// plan belong to a different epoch — the caller can detect this through
// the plans' Epoch values, which is exactly how vjserve turns it into 410.
func TestPaginationAcrossEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	doc := newDocument(testutil.RandomDoc(rng, 200, nil))
	q, err := ParseQuery("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	views, err := ParseViews("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	p0, err := Prepare(doc, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	full, err := p0.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Matches) < 4 {
		t.Skipf("document too small for pagination: %d matches", len(full.Matches))
	}

	page1, err := p0.RunWith(context.Background(), &RunOptions{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !samePage(page1.Matches, full.Matches[:2]) {
		t.Fatal("page 1 diverges from the full result")
	}
	cursor := make([]int32, len(page1.Matches[1]))
	for i, n := range page1.Matches[1] {
		cursor[i] = n.Start
	}

	// An update lands mid-pagination.
	frag, err := ParseDocumentString("<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	au, err := doc.Apply(Update{Op: AppendChild, TargetStart: doc.tree().Node(0).Start, Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}
	maintainAll(t, "pagination", mv, au)

	// Resuming on the pre-update plan stays consistent with its snapshot.
	page2, err := p0.RunWith(context.Background(), &RunOptions{Limit: 2, After: cursor})
	if err != nil {
		t.Fatalf("resume on pinned plan: %v", err)
	}
	if !samePage(page2.Matches, full.Matches[2:4]) {
		t.Fatal("page 2 on the pinned plan diverges from the pinned full result")
	}

	// The epochs disagree, which is what makes the cursor detectably stale
	// for a plan at the new epoch.
	p1, err := Prepare(doc, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Epoch() == p0.Epoch() {
		t.Fatalf("epochs must differ across an update: both %d", p1.Epoch())
	}
}

// TestMaintainErrors walks the public maintenance failure surface.
func TestMaintainErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	doc := newDocument(testutil.RandomDoc(rng, 80, nil))
	other := newDocument(testutil.RandomDoc(rng, 40, nil))
	views, err := ParseViews("//a//b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}

	// Apply errors: unknown target, missing fragment, deleting the root.
	if _, err := doc.Apply(Update{Op: DeleteSubtree, TargetStart: -5}); err == nil {
		t.Fatal("delete of unknown target succeeded")
	}
	if _, err := doc.Apply(Update{Op: AppendChild, TargetStart: doc.tree().Node(0).Start}); err == nil {
		t.Fatal("append without fragment succeeded")
	}
	if _, err := doc.Apply(Update{Op: DeleteSubtree, TargetStart: doc.tree().Node(0).Start}); err == nil {
		t.Fatal("delete of the root succeeded")
	}

	// A backend-loaded view (its pages alias the container image) refuses
	// maintenance up front.
	var buf bytes.Buffer
	if _, err := mv[0].SaveView(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := doc.LoadViewBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	frag, err := ParseDocumentString("<x/>")
	if err != nil {
		t.Fatal(err)
	}
	au1, err := doc.Apply(Update{Op: AppendChild, TargetStart: doc.tree().Node(0).Start, Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loaded.Maintain(au1); err == nil {
		t.Fatal("maintaining a backend-loaded view succeeded")
	}

	// A view of a different document is rejected before any epoch check.
	omv, err := other.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := omv[0].Maintain(au1); err == nil {
		t.Fatal("maintaining a different document's view succeeded")
	}

	// Skipping an update fails with the epoch mismatch: maintain au1, apply
	// au2, then try to re-apply au1's maintenance.
	maintainAll(t, "order", mv, au1)
	au2, err := doc.Apply(Update{Op: AppendChild, TargetStart: doc.tree().Node(0).Start, Fragment: frag})
	if err != nil {
		t.Fatal(err)
	}
	var em *EpochMismatchError
	if _, err := mv[0].Maintain(au1); !errors.As(err, &em) {
		t.Fatalf("replaying an old update: %v, want *EpochMismatchError", err)
	}
	maintainAll(t, "order", mv, au2)
	if mv[0].Epoch() != 2 {
		t.Fatalf("view epoch = %d, want 2", mv[0].Epoch())
	}
}

// TestStagedUpdate pins the prepare-then-commit path: nothing a staged
// update derives is visible before Commit, Commit publishes document and
// views together, and a staged update that can no longer apply — or is
// simply dropped — leaves everything as it was.
func TestStagedUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	doc := newDocument(testutil.RandomDoc(rng, 80, nil))
	views, err := ParseViews("//a//b; //c")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	frag, err := ParseDocumentString("<a><b/><c/></a>")
	if err != nil {
		t.Fatal(err)
	}
	u := Update{Op: AppendChild, TargetStart: doc.tree().Node(0).Start, Fragment: frag}
	q := MustParseQuery("//a[//c]//b")
	before := EvaluateDirect(doc, q)

	// Dropped after a partial derivation: nothing moved.
	s, err := doc.Stage(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Maintain(mv[0]); err != nil {
		t.Fatal(err)
	}
	other := newDocument(testutil.RandomDoc(rng, 20, nil))
	omv, err := other.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Maintain(omv[1]); err == nil {
		t.Fatal("staging a different document's view succeeded")
	}
	if doc.Epoch() != 0 || mv[0].Epoch() != 0 || mv[1].Epoch() != 0 {
		t.Fatalf("an uncommitted update is visible: epochs %d/%d/%d", doc.Epoch(), mv[0].Epoch(), mv[1].Epoch())
	}
	res, err := Evaluate(nil, doc, q, mv, EngineViewJoin, nil)
	if err != nil || !sameMatches(res, before) {
		t.Fatalf("evaluation changed under an uncommitted update: %v", err)
	}

	// Committed: document and views move together, onto the oracle's bytes.
	s, err = doc.Stage(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range mv {
		if _, err := s.Maintain(v); err != nil {
			t.Fatal(err)
		}
	}
	au, err := s.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if au.Epoch() != 1 || doc.Epoch() != 1 || mv[0].Epoch() != 1 || mv[1].Epoch() != 1 {
		t.Fatalf("after commit: epochs %d/%d/%d/%d, want all 1", au.Epoch(), doc.Epoch(), mv[0].Epoch(), mv[1].Epoch())
	}
	requireStoreEquality(t, "staged commit", mv, doc, views, SchemeLEp)
	if _, err := s.Commit(); err == nil {
		t.Fatal("committing the same staged update twice succeeded")
	}

	// Overtaken: another writer moved the document after Stage.
	s, err = doc.Stage(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Maintain(mv[0]); err != nil {
		t.Fatal(err)
	}
	au2, err := doc.Apply(u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Commit(); err == nil {
		t.Fatal("committing over a moved document succeeded")
	}
	if mv[0].Epoch() != 1 {
		t.Fatalf("a refused commit moved the view to epoch %d", mv[0].Epoch())
	}
	maintainAll(t, "catch up", mv, au2)
	requireStoreEquality(t, "after refused commit", mv, doc, views, SchemeLEp)
}
