package viewjoin

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"viewjoin/internal/testutil"
	"viewjoin/internal/xmltree"
)

// TestConcurrentReadersDuringUpdates races every read entry point against
// the write path under the race detector: reader goroutines continuously
// Prepare and run (whole, twice, and bounded) while a writer
// applies a long update sequence with incremental maintenance, every
// successor a fresh store published under the readers. The invariants:
//
//   - readers never fail except with the retryable *EpochMismatchError
//     (a Prepare landing between an Apply and its Maintains),
//   - every run of one prepared plan is byte-identical to that plan's
//     first result — a plan is pinned to its snapshot, whatever the
//     writer does concurrently.
func TestConcurrentReadersDuringUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	doc := newDocument(testutil.RandomDoc(rng, 150, nil))
	q, err := ParseQuery("//a[//b]//c")
	if err != nil {
		t.Fatal(err)
	}
	views, err := ParseViews("//a//c; //b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}

	const minUpdates = 40
	stop := make(chan struct{})
	var runs atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := Prepare(doc, q, mv, EngineViewJoin, nil)
				if err != nil {
					var em *EpochMismatchError
					if errors.As(err, &em) {
						continue // the writer is mid-transaction; retry
					}
					t.Errorf("reader prepare: %v", err)
					return
				}
				seq, err := p.Run()
				if err != nil {
					t.Errorf("reader run: %v", err)
					return
				}
				again, err := p.Run()
				if err != nil {
					t.Errorf("reader rerun: %v", err)
					return
				}
				if !identicalMatches(again, seq) {
					t.Errorf("second run diverged from the first on one snapshot: %d vs %d",
						len(again.Matches), len(seq.Matches))
					return
				}
				// A limit nothing reaches: the run flushes partial windows, as
				// a page does, and still returns every row.
				paged, err := p.RunWith(context.Background(), &RunOptions{Limit: 1 << 30})
				if err != nil {
					t.Errorf("reader bounded: %v", err)
					return
				}
				if !identicalMatches(paged, seq) {
					t.Errorf("bounded run returned %d rows, sequential has %d", len(paged.Matches), len(seq.Matches))
					return
				}
				runs.Add(1)
			}
		}()
	}

	// The writer keeps updating until the soak has covered what it is here
	// to cover: a healthy number of complete reader runs overlapped with
	// live maintenance.
	wrng := rand.New(rand.NewSource(22))
	applied := 0
	for applied < minUpdates || runs.Load() < 20 {
		if applied >= 20000 {
			break
		}
		u := randomPublicUpdate(wrng, doc)
		au, err := doc.Apply(u)
		if err != nil {
			t.Fatalf("update %d: apply: %v", applied, err)
		}
		for vi, v := range mv {
			if _, err := v.Maintain(au); err != nil {
				t.Fatalf("update %d: maintain view %d: %v", applied, vi, err)
			}
		}
		applied++
	}
	close(stop)
	wg.Wait()

	if runs.Load() == 0 {
		t.Fatal("readers completed no runs while the writer was active")
	}
	// Quiesced, everything agrees with the oracle.
	res, err := Evaluate(nil, doc, q, mv, EngineViewJoin, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sameMatches(res, EvaluateDirect(doc, q)) {
		t.Fatal("post-soak evaluation disagrees with oracle")
	}
}

// TestConcurrentPinnedReaderNeverMoves races one long-lived prepared plan
// against the writer: every re-run of the pinned plan, interleaved with
// updates and maintenance on other goroutine, must return the byte-exact
// pre-update result.
func TestConcurrentPinnedReaderNeverMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
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

	done := make(chan struct{})
	go func() {
		defer close(done)
		wrng := rand.New(rand.NewSource(32))
		for i := 0; i < 25; i++ {
			au, err := doc.Apply(randomPublicUpdate(wrng, doc))
			if err != nil {
				t.Errorf("writer apply: %v", err)
				return
			}
			for _, v := range mv {
				if _, err := v.Maintain(au); err != nil {
					t.Errorf("writer maintain: %v", err)
					return
				}
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		res, err := p0.Run()
		if err != nil {
			t.Fatalf("pinned run: %v", err)
		}
		if !identicalMatches(res, res0) {
			t.Fatalf("pinned plan observed post-update state: %d vs %d matches",
				len(res.Matches), len(res0.Matches))
		}
	}
}

// TestConcurrentSnapshotReadsDuringWriteOut races the three ways a derived
// snapshot is read. Snapshot k is a piece table; readers walk it node by
// node (Node, FindByStart) while the writer splices k+1…k+100 off it and a
// third goroutine materializes views over whatever is current — the bulk
// reads (Nodes, NodesOfType) that write a table out, snapshot k's among
// them. The walkers must see k's labels throughout, and the maintained
// views must end byte-identical to fresh materializations.
func TestConcurrentSnapshotReadsDuringWriteOut(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	doc := newDocument(testutil.RandomDoc(rng, 150, nil))
	views, err := ParseViews("//a//c; //b")
	if err != nil {
		t.Fatal(err)
	}
	mv, err := doc.MaterializeViews(views, SchemeLEp)
	if err != nil {
		t.Fatal(err)
	}
	write := func(label string, n int) {
		for i := 0; i < n; i++ {
			au, err := doc.Apply(randomPublicUpdate(rng, doc))
			if err != nil {
				t.Errorf("%s %d: apply: %v", label, i, err)
				return
			}
			for _, v := range mv {
				if _, err := v.Maintain(au); err != nil {
					t.Errorf("%s %d: maintain %s: %v", label, i, v.Pattern(), err)
					return
				}
			}
		}
	}
	write("warm-up", 12)
	snap := doc.tree()
	if snap.NumPieces() < 2 {
		t.Fatalf("snapshot k has %d pieces, want a piece table", snap.NumPieces())
	}
	want := make([]xmltree.Node, snap.NumNodes())
	for id := range want {
		want[id] = snap.Node(xmltree.NodeID(id))
	}

	stop := make(chan struct{})
	var walks, mats atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for id, w := range want {
					if got := snap.Node(xmltree.NodeID(id)); got != w {
						t.Errorf("snapshot k moved: node %d = %+v, was %+v", id, got, w)
						return
					}
					if got := snap.FindByStart(w.Start); got != xmltree.NodeID(id) {
						t.Errorf("snapshot k moved: FindByStart(%d) = %d, was %d", w.Start, got, id)
						return
					}
				}
				walks.Add(1)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			if _, err := doc.MaterializeView(views[i%len(views)], SchemeLEp, nil); err != nil {
				t.Errorf("materialize over the current snapshot: %v", err)
				return
			}
			mats.Add(1)
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	// At least k+1…k+100, and on until both kinds of reader have overlapped
	// the writer a healthy number of times.
	write("update", 100)
	for n := 0; n < 200 && !t.Failed() && (walks.Load() < 20 || mats.Load() < 20); n++ {
		write("update", 10)
	}
	close(stop)
	wg.Wait()
	requireStoreEquality(t, "after the updates", mv, doc, views, SchemeLEp)
}
