package viewjoin

import (
	"fmt"

	"viewjoin/internal/maintain"
	"viewjoin/internal/xmltree"
)

// UpdateOp selects a document update operation. All operations splice a
// whole subtree: the region-labelled tree stays dense, so every evaluation
// engine and storage scheme works unchanged on the updated snapshot.
type UpdateOp int

const (
	// InsertBefore inserts the fragment as the target's immediately
	// preceding sibling. The target must not be the root.
	InsertBefore UpdateOp = iota
	// AppendChild appends the fragment as the target's last child.
	AppendChild
	// DeleteSubtree removes the target and everything below it. The target
	// must not be the root.
	DeleteSubtree
)

// String names the operation.
func (op UpdateOp) String() string {
	switch op {
	case InsertBefore:
		return "insert-before"
	case AppendChild:
		return "append-child"
	case DeleteSubtree:
		return "delete-subtree"
	default:
		return fmt.Sprintf("UpdateOp(%d)", int(op))
	}
}

// Update describes one subtree update against a document's current
// snapshot.
type Update struct {
	Op UpdateOp
	// TargetStart addresses the target node by its start label in the
	// document's current snapshot (Node.Start of any query result row, so
	// results address update targets directly).
	TargetStart int32
	// Fragment is the subtree to insert, parsed or generated as its own
	// Document; its root becomes the inserted subtree's root. nil for
	// DeleteSubtree, required otherwise.
	Fragment *Document
}

// AppliedUpdate is the outcome of a successful Document.Apply: an opaque
// descriptor of the splice, consumed by MaterializedView.Maintain to
// repair views incrementally. It is tied to the exact epoch transition it
// performed — maintaining a view that is not at the predecessor epoch
// fails with *EpochMismatchError.
type AppliedUpdate struct {
	au    *xmltree.Applied
	epoch uint64 // the document epoch this update produced
	doc   *Document
}

// Epoch returns the document epoch the update produced (the predecessor
// snapshot's epoch plus one).
func (u *AppliedUpdate) Epoch() uint64 { return u.epoch }

// EpochMismatchError reports a snapshot disagreement: a view that does not
// reflect the document snapshot an operation needs — Prepare against a
// view left behind by an Apply, or Maintain with an update that does not
// start at the view's epoch. The caller resolves it by maintaining the
// view through the missing updates (or re-materializing it) and retrying.
type EpochMismatchError struct {
	// ViewEpoch and DocEpoch are the view's epoch and the epoch the
	// operation needed.
	ViewEpoch, DocEpoch uint64
	// View is the view's pattern.
	View string
}

func (e *EpochMismatchError) Error() string {
	return fmt.Sprintf("viewjoin: view %s is at epoch %d, document snapshot is at epoch %d; maintain or re-materialize the view",
		e.View, e.ViewEpoch, e.DocEpoch)
}

// Apply installs u as the document's next snapshot and returns the splice
// descriptor for view maintenance. The previous snapshot is untouched:
// views, prepared queries and in-flight evaluations keep reading it until
// they are maintained or re-prepared. Apply calls are serialized
// internally; readers never block.
//
// Deprecated: use Stage, then StagedUpdate.Maintain for each view and
// StagedUpdate.Commit, which publishes the snapshot and its views at once.
func (d *Document) Apply(u Update) (*AppliedUpdate, error) {
	d.w.Lock()
	defer d.w.Unlock()
	s, err := d.Stage(u)
	if err != nil {
		return nil, err
	}
	return s.commit()
}

// MaintainReport describes how a view was maintained.
type MaintainReport struct {
	// FastPath reports that the update touched no node of any view-label
	// type, so membership and all pointers were provably unchanged and the
	// lists were only relabelled.
	FastPath bool
	// RecomputedEntries counts the list records derived from the updated
	// document rather than carried over from the old store: the measure of
	// how local the maintenance was.
	RecomputedEntries int
	// TotalPages is the maintained store's page count.
	TotalPages int
	// Pieces is the piece count of the maintained store's largest list: 1
	// is flat. It drops back after the update that writes the lists out.
	Pieces int
}

// derive computes the view's successor store under u without publishing
// it. The view must be at u's predecessor snapshot.
func (v *MaterializedView) derive(u *AppliedUpdate) (*viewState, MaintainReport, error) {
	if u == nil || u.doc == nil {
		return nil, MaintainReport{}, fmt.Errorf("viewjoin: Maintain needs an AppliedUpdate from Document.Apply")
	}
	if v.doc != u.doc {
		return nil, MaintainReport{}, fmt.Errorf("viewjoin: view %s belongs to a different document", v.pattern)
	}
	if v.loaded {
		return nil, MaintainReport{}, fmt.Errorf("viewjoin: view %s was loaded from a saved image and cannot be maintained; reload it at the new epoch", v.pattern)
	}
	st := v.st()
	if st.tree != u.au.Old {
		return nil, MaintainReport{}, &EpochMismatchError{ViewEpoch: st.epoch, DocEpoch: u.epoch - 1, View: v.pattern.String()}
	}
	next, rep, err := maintain.View(st.store, u.au)
	if err != nil {
		return nil, MaintainReport{}, err
	}
	return &viewState{tree: u.au.New, epoch: u.epoch, store: next},
		MaintainReport{FastPath: rep.FastPath, RecomputedEntries: rep.RecomputedEntries, TotalPages: next.NumPages(), Pieces: next.NumPieces()}, nil
}

// Maintain repairs the view in place of re-materializing it, making it
// reflect the document snapshot u produced. The view must be at u's
// predecessor epoch (apply updates and maintain in order; otherwise
// *EpochMismatchError). The successor is a fresh store derived from the
// published one, which is left untouched: concurrent readers and prepared
// queries at the old epoch stay consistent.
//
// Loaded views (LoadViewBytes, LoadViewMmap) cannot be maintained: their
// pages alias a container image whose lifetime the caller or Release
// controls. Reload them from a store saved at the new epoch instead.
func (v *MaterializedView) Maintain(u *AppliedUpdate) (MaintainReport, error) {
	v.doc.w.Lock()
	defer v.doc.w.Unlock()
	next, rep, err := v.derive(u)
	if err == nil {
		v.state.Store(next)
	}
	return rep, err
}

// StagedUpdate is a document update derived but not yet published: the
// successor tree, and the successor store of every view maintained through
// it. Nothing is visible to readers until Commit, which publishes the
// document snapshot and all staged views together — so a derivation that
// fails part-way leaves the old epoch fully served. Apply followed by
// Maintain publishes step by step instead.
type StagedUpdate struct {
	u     *AppliedUpdate
	views []*MaterializedView
	next  []*viewState
}

// Stage derives u against the document's current snapshot without
// installing it.
func (d *Document) Stage(u Update) (*StagedUpdate, error) {
	snap := d.snap()
	var op xmltree.UpdateOp
	switch u.Op {
	case InsertBefore:
		op = xmltree.OpInsertBefore
	case AppendChild:
		op = xmltree.OpAppendChild
	case DeleteSubtree:
		op = xmltree.OpDeleteSubtree
	default:
		return nil, fmt.Errorf("viewjoin: unknown update op %v", u.Op)
	}
	target := snap.tree.FindByStart(u.TargetStart)
	if target < 0 {
		return nil, fmt.Errorf("viewjoin: update target start %d not in document", u.TargetStart)
	}
	var frag *xmltree.Document
	if u.Fragment != nil {
		frag = u.Fragment.tree()
	}
	au, err := snap.tree.Apply(xmltree.Update{Op: op, Target: target, Fragment: frag})
	if err != nil {
		return nil, fmt.Errorf("viewjoin: apply %v: %w", u.Op, err)
	}
	return &StagedUpdate{u: &AppliedUpdate{au: au, epoch: snap.epoch + 1, doc: d}}, nil
}

// Maintain derives v's successor under the staged update and holds it for
// Commit. It fails like MaterializedView.Maintain, publishing nothing.
func (s *StagedUpdate) Maintain(v *MaterializedView) (MaintainReport, error) {
	next, rep, err := v.derive(s.u)
	if err != nil {
		return MaintainReport{}, err
	}
	s.views, s.next = append(s.views, v), append(s.next, next)
	return rep, nil
}

// Commit publishes the staged snapshot and every staged view. It fails,
// publishing nothing, if the document or a view (*EpochMismatchError) has
// moved since Stage.
func (s *StagedUpdate) Commit() (*AppliedUpdate, error) {
	s.u.doc.w.Lock()
	defer s.u.doc.w.Unlock()
	return s.commit()
}

// commit is Commit under the document's writer lock.
func (s *StagedUpdate) commit() (*AppliedUpdate, error) {
	d, old := s.u.doc, s.u.au.Old
	if snap := d.snap(); snap.tree != old {
		return nil, fmt.Errorf("viewjoin: update staged at epoch %d, document has moved to epoch %d", s.u.epoch-1, snap.epoch)
	}
	for _, v := range s.views {
		if st := v.st(); st.tree != old {
			return nil, &EpochMismatchError{ViewEpoch: st.epoch, DocEpoch: s.u.epoch - 1, View: v.pattern.String()}
		}
	}
	d.cur.Store(&docSnap{tree: s.u.au.New, epoch: s.u.epoch})
	for i, v := range s.views {
		v.state.Store(s.next[i])
	}
	return s.u, nil
}
