package server

import (
	"errors"
	"fmt"
	"sort"

	"viewjoin"
)

// This file is the server's registry: named documents and their views. A
// view is registered either from memory (AddView) or from a saved
// container file (AddViewFile). A file is validated against its document
// and mapped read-only once, at registration, and served from that mapping
// until Server.Close: the kernel's page cache — shared by every document
// and every process mapping the same file — is the only tier there is.
// Mappings unwind only after Drain, when no reader can remain; munmap under
// a live reader is a fault. Files are never updated in place
// (vjmaterialize replaces them by rename), and only in-memory views are
// maintained by /update. A deployment that wants isolation names its
// documents apart ("acme/doc").

// viewEntry is one registered view of one document, immutable after
// registration (an /update publishes through the view handle).
type viewEntry struct {
	mv   *viewjoin.MaterializedView
	path string // container file; "" for in-memory views
}

// tier names where a view's pages live, for listings.
func (ve *viewEntry) tier() string {
	if ve.path != "" {
		return "file"
	}
	return "memory"
}

// AddDocument registers a document under a name. Not safe to call once
// serving has started.
func (s *Server) AddDocument(name string, d *viewjoin.Document) error {
	if name == "" {
		return errors.New("server: empty document name")
	}
	if _, ok := s.docs[name]; ok {
		return fmt.Errorf("server: document %q already registered", name)
	}
	s.docs[name] = &docEntry{doc: d, views: make(map[string]*viewEntry)}
	return nil
}

// AddView registers an in-memory materialized view under a document. The
// view is addressable in requests by the canonical rendering of its
// pattern (e.g. "//site//item//name"). Not safe to call once serving has
// started.
func (s *Server) AddView(docName string, mv *viewjoin.MaterializedView) error {
	e, err := s.registered(docName)
	if err != nil {
		return err
	}
	return e.addView(mv, "", docName)
}

// AddViewFile registers a saved view container file under a document: the
// file is validated against the document and mapped (viewjoin's
// LoadViewMmap), and stays mapped until Close. Not safe to call once
// serving has started.
func (s *Server) AddViewFile(docName, path string) error {
	e, err := s.registered(docName)
	if err != nil {
		return err
	}
	mv, err := e.doc.LoadViewMmap(path)
	if err != nil {
		return fmt.Errorf("server: view file %s: %w", path, err)
	}
	if err := e.addView(mv, path, docName); err != nil {
		mv.Release()
		return err
	}
	return nil
}

// addView enters a view under its canonical pattern; docName is for the
// duplicate error.
func (e *docEntry) addView(mv *viewjoin.MaterializedView, path, docName string) error {
	name := mv.Pattern().String()
	if _, ok := e.views[name]; ok {
		return fmt.Errorf("server: view %s already registered for document %q", name, docName)
	}
	e.views[name] = &viewEntry{mv: mv, path: path}
	e.order = append(e.order, name)
	return nil
}

// registered resolves a registration target.
func (s *Server) registered(docName string) (*docEntry, error) {
	e, ok := s.docs[docName]
	if !ok {
		return nil, fmt.Errorf("server: unknown document %q", docName)
	}
	return e, nil
}

// eachView visits every registered view: documents in sorted order,
// registration order within a document.
func (s *Server) eachView(f func(doc, view string, ve *viewEntry)) {
	for _, dn := range sortedKeys(s.docs) {
		e := s.docs[dn]
		for _, vn := range e.order {
			f(dn, vn, e.views[vn])
		}
	}
}

// Close unmaps every view file, after draining, so no in-flight evaluation
// can touch an unmapped page. It is the shutdown path of cmd/vjserve, and
// idempotent.
func (s *Server) Close() error {
	s.Drain()
	var first error
	s.eachView(func(_, _ string, ve *viewEntry) {
		if err := ve.mv.Release(); err != nil && first == nil {
			first = err
		}
	})
	return first
}

// viewMetrics is the registry block of GET /metrics: how many views are
// served from files and from memory, and the files' summed size.
type viewMetrics struct {
	FileViews   int   `json:"file_views"`
	FileBytes   int64 `json:"file_bytes"`
	MemoryViews int   `json:"memory_views"`
}

func (s *Server) viewSnapshot() viewMetrics {
	var m viewMetrics
	s.eachView(func(_, _ string, ve *viewEntry) {
		if ve.path == "" {
			m.MemoryViews++
			return
		}
		m.FileViews++
		m.FileBytes += ve.mv.SizeBytes()
	})
	return m
}

// viewRow is one registered view in GET /debug/plans.
type viewRow struct {
	Document  string `json:"document"`
	View      string `json:"view"`
	Tier      string `json:"tier"` // memory, file
	SizeBytes int64  `json:"size_bytes"`
}

func (s *Server) viewRows() []viewRow {
	var rows []viewRow
	s.eachView(func(dn, vn string, ve *viewEntry) {
		rows = append(rows, viewRow{Document: dn, View: vn, Tier: ve.tier(), SizeBytes: ve.mv.SizeBytes()})
	})
	return rows
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
