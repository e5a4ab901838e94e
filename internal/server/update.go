package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
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

// updateRequest is the body of POST /update.
type updateRequest struct {
	// Tenant selects the registry the document is looked up in; empty is
	// the default tenant.
	Tenant   string `json:"tenant,omitempty"`
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

// handleUpdate serves POST /update. Updates share the worker pool with
// queries (an update is a bounded unit of CPU like any evaluation), and
// each document's updates are serialized on its write mutex.
func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "request", errors.New("POST required"), false)
		return
	}
	s.requests.Add(1)
	started := time.Now()
	var req updateRequest
	line := accessLine{Outcome: "error"}
	fail := func(status int, stage string, err error) {
		if line.Outcome == "error" {
			s.failures.Add(1)
		}
		writeError(w, status, stage, err, false)
		line.Document, line.Op, line.Status, line.Stage, line.Error = req.Document, req.Op, status, stage, err.Error()
		s.logLine(line, time.Since(started))
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		fail(http.StatusBadRequest, "request", err)
		return
	}

	release, status, stage, err := s.admit()
	if err != nil {
		line.Outcome = admissionOutcome(status) // admit counted it; it is no failure
		fail(status, stage, err)
		return
	}
	defer release()

	var e *docEntry
	if t := s.tenants[req.Tenant]; t != nil {
		e = t.docs[req.Document]
	}
	if e == nil {
		fail(http.StatusNotFound, "resolve", fmt.Errorf("unknown document %q%s", req.Document, forTenant(req.Tenant)))
		return
	}
	op, err := parseUpdateOp(req.Op)
	if err != nil {
		fail(http.StatusBadRequest, "parse", err)
		return
	}
	u := viewjoin.Update{Op: op, TargetStart: req.Target}
	if op != viewjoin.DeleteSubtree {
		if req.Fragment == "" {
			fail(http.StatusBadRequest, "parse", fmt.Errorf("op %s needs a fragment", op))
			return
		}
		if u.Fragment, err = viewjoin.ParseDocumentString(req.Fragment); err != nil {
			fail(http.StatusBadRequest, "parse", fmt.Errorf("fragment: %w", err))
			return
		}
	}

	e.wmu.Lock()
	defer e.wmu.Unlock()

	// Every view must be maintainable: file-backed views alias their
	// mapping and cannot be derived from.
	for _, vn := range e.order {
		if e.views[vn].path != "" {
			fail(http.StatusConflict, "maintain",
				fmt.Errorf("view %s is file-backed and cannot be maintained; updates need in-memory views", vn))
			return
		}
	}

	// Prepare: derive the successor tree and every view's successor store.
	// Nothing is published yet, so any failure here just returns.
	t0 := time.Now()
	staged, err := e.doc.Stage(u)
	if err != nil {
		fail(http.StatusUnprocessableEntity, "apply", err)
		return
	}
	line.ApplyUS = time.Since(t0).Microseconds()
	t0 = time.Now()
	reports := make([]maintainJSON, 0, len(e.order))
	fastPaths := 0
	for _, vn := range e.order {
		var rep viewjoin.MaintainReport
		if s.testFailMaintain != nil {
			err = s.testFailMaintain(vn)
		}
		if err == nil {
			rep, err = staged.Maintain(e.views[vn].mv)
		}
		if err != nil {
			fail(http.StatusInternalServerError, "maintain", fmt.Errorf("view %s: %w", vn, err))
			return
		}
		if rep.FastPath {
			fastPaths++
		}
		line.RecomputedEntries += rep.RecomputedEntries
		line.ViewPieces = max(line.ViewPieces, rep.Pieces)
		reports = append(reports, maintainJSON{
			View: vn, FastPath: rep.FastPath,
			RecomputedEntries: rep.RecomputedEntries, TotalPages: rep.TotalPages, Pieces: rep.Pieces,
		})
	}
	line.MaintainUS = time.Since(t0).Microseconds()

	// Commit: publish the document snapshot and every view, and drop the
	// document's cached plans — they bind the pre-update snapshot — under
	// the publication lock, so no Prepare sees half of the transition and
	// no plan of the old epoch enters the cache behind the invalidation.
	e.pub.Lock()
	au, err := staged.Commit()
	invalidated := 0
	if err == nil {
		invalidated = s.cache.invalidateDoc(req.Tenant, req.Document)
	}
	e.pub.Unlock()
	if err != nil {
		// Only a writer outside the server (a direct Document.Apply) can
		// have moved the document under the write mutex.
		fail(http.StatusConflict, "commit", err)
		return
	}
	s.updates.Add(1)
	s.maintains.Add(int64(len(reports)))
	s.fastPaths.Add(int64(fastPaths))
	s.planInvalidations.Add(int64(invalidated))
	s.applyUS.Add(line.ApplyUS)
	s.maintainUS.Add(line.MaintainUS)
	s.recomputed.Add(int64(line.RecomputedEntries))

	line.Document, line.Op, line.Status, line.Outcome = req.Document, req.Op, http.StatusOK, "ok"
	line.DocPieces = e.doc.NumPieces()
	total := time.Since(started)
	s.logLine(line, total)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(updateResponse{
		Schema:            ResponseSchema,
		Document:          req.Document,
		Op:                op.String(),
		Epoch:             au.Epoch(),
		Nodes:             e.doc.NumNodes(),
		DocPieces:         line.DocPieces,
		Views:             reports,
		PlansInvalidated:  invalidated,
		ApplyUS:           line.ApplyUS,
		MaintainUS:        line.MaintainUS,
		RecomputedEntries: line.RecomputedEntries,
		DurationUS:        total.Microseconds(),
	})
}
