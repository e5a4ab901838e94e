package server

import (
	"fmt"
	"net/http"
	"time"

	"viewjoin"
)

// This file is the server's write path: POST /update applies one subtree
// update to a registered document and incrementally maintains every one of
// its views, as a single prepare-then-commit transaction per document: the
// successor tree and every view's successor store are derived first, off
// the immutable published snapshots, and only when all of them exist are
// document, views and plan invalidation published together. A derivation
// that fails leaves the old epoch fully served. Queries never wait on the
// derivation — they run against immutable snapshots, and a plan prepared
// before the update keeps answering consistently at its own epoch.

// updateRequest is the body of POST /update, decoded strictly like a
// query's.
type updateRequest struct {
	Document string `json:"document"`
	// Op is the update operation: insert-before, append-child, or
	// delete-subtree (the UpdateOp spellings).
	Op string `json:"op"`
	// Target addresses the target node by its start label in the
	// document's current snapshot — the start of any query result row, so
	// query responses address update targets directly.
	Target int32 `json:"target"`
	// Fragment is the XML of the subtree to insert; its root element
	// becomes the inserted subtree's root. Ignored for delete-subtree.
	Fragment string `json:"fragment,omitempty"`
}

// maintainJSON is one view's maintenance outcome in an update response.
type maintainJSON struct {
	View              string `json:"view"`
	FastPath          bool   `json:"fast_path"`
	RecomputedEntries int    `json:"recomputed_entries"`
	TotalPages        int    `json:"total_pages"`
	// Pieces is the piece count of the view's largest list; 1 = flat.
	Pieces int `json:"pieces"`
}

// updateResponse is the body of a successful POST /update.
type updateResponse struct {
	Schema   string `json:"schema"`
	Document string `json:"document"`
	Op       string `json:"op"`
	// Epoch is the document epoch the update produced. Cursors and cached
	// plans issued before it are invalid at it; /documents reports it so
	// clients can tell which epoch they are paginating against.
	Epoch uint64 `json:"epoch"`
	Nodes int    `json:"nodes"` // node count of the updated document
	// DocPieces is the size of the published snapshot's piece table.
	DocPieces int `json:"doc_pieces"`
	// Views reports how each registered view was maintained, in
	// registration order.
	Views []maintainJSON `json:"views"`
	// PlansInvalidated counts the cached plans dropped because they bound
	// the document's pre-update snapshot.
	PlansInvalidated int `json:"plans_invalidated"`
	// ApplyUS and MaintainUS split the transaction into its two layers:
	// deriving the successor tree, and deriving every view's successor
	// store. RecomputedEntries sums the views' recomputed list records.
	ApplyUS           int64 `json:"apply_us"`
	MaintainUS        int64 `json:"maintain_us"`
	RecomputedEntries int   `json:"recomputed_entries"`
	DurationUS        int64 `json:"duration_us"`
}

// parseUpdateOp resolves the request spelling of an update operation.
func parseUpdateOp(s string) (viewjoin.UpdateOp, error) {
	switch s {
	case "insert-before":
		return viewjoin.InsertBefore, nil
	case "append-child":
		return viewjoin.AppendChild, nil
	case "delete-subtree":
		return viewjoin.DeleteSubtree, nil
	}
	return 0, fmt.Errorf("unknown update op %q (want insert-before, append-child, delete-subtree)", s)
}

// decodeUpdate is /update's decode stage. The access line names the
// request as far as its body decoded, a body that did not decode too.
func (x *exchange) decodeUpdate(r *http.Request, req *updateRequest) *failure {
	err := decodeStrict(r.Body, req)
	x.line.Document, x.line.Op = req.Document, req.Op
	if err != nil {
		return failed(http.StatusBadRequest, "request", err)
	}
	return nil
}

// update runs an admitted update's stages after decode: resolve, then
// maintain and commit as one prepare-then-commit transaction under the
// document's write mutex, which serializes the document's updates.
// Updates share the worker pool with queries: an update is a bounded unit
// of CPU like any evaluation.
func (s *Server) update(req *updateRequest, x *exchange) *failure {
	e, u, f := s.resolveUpdate(req)
	if f != nil {
		return f
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	staged, reports, f := s.maintain(e, u, x)
	if f != nil {
		return f
	}

	// Commit: publish the document snapshot and every view, and drop the
	// document's cached plans — they bind the pre-update snapshot — under
	// the publication lock, so no Prepare sees half of the transition and
	// no plan of the old epoch enters the cache behind the invalidation.
	e.pub.Lock()
	au, err := staged.Commit()
	invalidated := 0
	if err == nil {
		invalidated = s.cache.invalidateDoc(req.Document)
	}
	e.pub.Unlock()
	if err != nil {
		// Only a writer outside the server (a direct Document.Apply) can
		// have moved the document under the write mutex.
		return failed(http.StatusConflict, "commit", err)
	}
	fastPaths := 0
	for _, rep := range reports {
		if rep.FastPath {
			fastPaths++
		}
	}
	s.updates.Add(1)
	s.maintains.Add(int64(len(reports)))
	s.fastPaths.Add(int64(fastPaths))
	s.planInvalidations.Add(int64(invalidated))
	s.applyUS.Add(x.line.ApplyUS)
	s.maintainUS.Add(x.line.MaintainUS)
	s.recomputed.Add(int64(x.line.RecomputedEntries))

	x.line.DocPieces = e.doc.NumPieces()
	x.update = &updateResponse{
		Schema:            ResponseSchema,
		Document:          req.Document,
		Op:                u.Op.String(),
		Epoch:             au.Epoch(),
		Nodes:             e.doc.NumNodes(),
		DocPieces:         x.line.DocPieces,
		Views:             reports,
		PlansInvalidated:  invalidated,
		ApplyUS:           x.line.ApplyUS,
		MaintainUS:        x.line.MaintainUS,
		RecomputedEntries: x.line.RecomputedEntries,
	}
	return nil
}

// resolveUpdate is /update's resolve stage: the document, and the update
// the request spells.
func (s *Server) resolveUpdate(req *updateRequest) (*docEntry, viewjoin.Update, *failure) {
	e := s.docs[req.Document]
	if e == nil {
		return nil, viewjoin.Update{}, failed(http.StatusNotFound, "resolve", fmt.Errorf("unknown document %q", req.Document))
	}
	op, err := parseUpdateOp(req.Op)
	if err != nil {
		return nil, viewjoin.Update{}, failed(http.StatusBadRequest, "parse", err)
	}
	u := viewjoin.Update{Op: op, TargetStart: req.Target}
	if op != viewjoin.DeleteSubtree {
		if req.Fragment == "" {
			return nil, viewjoin.Update{}, failed(http.StatusBadRequest, "parse", fmt.Errorf("op %s needs a fragment", op))
		}
		if u.Fragment, err = viewjoin.ParseDocumentString(req.Fragment); err != nil {
			return nil, viewjoin.Update{}, failed(http.StatusBadRequest, "parse", fmt.Errorf("fragment: %w", err))
		}
	}
	return e, u, nil
}

// maintain is the prepare half of the transaction: it derives the
// successor tree and every view's successor store. Nothing is published
// yet, so any failure here just returns.
func (s *Server) maintain(e *docEntry, u viewjoin.Update, x *exchange) (*viewjoin.StagedUpdate, []maintainJSON, *failure) {
	// Every view must be maintainable: file-backed views alias their
	// mapping and cannot be derived from.
	for _, vn := range e.order {
		if e.views[vn].path != "" {
			return nil, nil, failed(http.StatusConflict, "maintain",
				fmt.Errorf("view %s is file-backed and cannot be maintained; updates need in-memory views", vn))
		}
	}
	t0 := time.Now()
	staged, err := e.doc.Stage(u)
	if err != nil {
		return nil, nil, failed(http.StatusUnprocessableEntity, "apply", err)
	}
	x.line.ApplyUS = time.Since(t0).Microseconds()
	t0 = time.Now()
	reports := make([]maintainJSON, 0, len(e.order))
	for _, vn := range e.order {
		var rep viewjoin.MaintainReport
		if s.testFailMaintain != nil {
			err = s.testFailMaintain(vn)
		}
		if err == nil {
			rep, err = staged.Maintain(e.views[vn].mv)
		}
		if err != nil {
			return nil, nil, failed(http.StatusInternalServerError, "maintain", fmt.Errorf("view %s: %w", vn, err))
		}
		x.line.RecomputedEntries += rep.RecomputedEntries
		x.line.ViewPieces = max(x.line.ViewPieces, rep.Pieces)
		reports = append(reports, maintainJSON{
			View: vn, FastPath: rep.FastPath,
			RecomputedEntries: rep.RecomputedEntries, TotalPages: rep.TotalPages, Pieces: rep.Pieces,
		})
	}
	x.line.MaintainUS = time.Since(t0).Microseconds()
	return staged, reports, nil
}
