package server

import (
	"errors"
	"fmt"
	"sort"

	"viewjoin"
)

// This file is the server's registry: per-tenant documents and their
// views. A view is registered either from memory (AddView / AddTenantView)
// or from a saved container file (AddViewFile / AddTenantViewFile). A file
// is validated against its document and mapped read-only once, at
// registration, and served from that mapping until Server.Close: the
// kernel's page cache — shared by every tenant and every process mapping
// the same file — is the only tier there is. Mappings unwind only after
// Drain, when no reader can remain; munmap under a live reader is a fault.
// Files are never updated in place (vjmaterialize replaces them by
// rename), and only in-memory views are maintained by /update.

// tenant is one isolated registry of documents and views. The zero-named
// tenant ("") is the default registry that the non-tenant API surface
// (AddDocument/AddView, requests without a tenant field) addresses.
type tenant struct {
	name string
	docs map[string]*docEntry
}

// viewEntry is one registered view of one tenant's document, immutable
// after registration (an /update publishes through the view handle).
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

// AddTenantDocument registers a document under a tenant's registry,
// creating the tenant on first use. Not safe to call once serving has
// started.
func (s *Server) AddTenantDocument(tenantName, name string, d *viewjoin.Document) error {
	if name == "" {
		return errors.New("server: empty document name")
	}
	t := s.tenants[tenantName]
	if t == nil {
		t = &tenant{name: tenantName, docs: make(map[string]*docEntry)}
		s.tenants[tenantName] = t
	}
	if _, ok := t.docs[name]; ok {
		return fmt.Errorf("server: document %q already registered%s", name, forTenant(tenantName))
	}
	t.docs[name] = &docEntry{doc: d, views: make(map[string]*viewEntry)}
	return nil
}

// AddTenantView registers an in-memory materialized view under a tenant's
// document. Not safe to call once serving has started.
func (s *Server) AddTenantView(tenantName, docName string, mv *viewjoin.MaterializedView) error {
	e, err := s.tenantDoc(tenantName, docName)
	if err != nil {
		return err
	}
	return e.addView(mv, "", docName, tenantName)
}

// AddTenantViewFile registers a saved view container file under a
// tenant's document: the file is validated against the document and
// mapped (viewjoin's LoadViewMmap), and stays mapped until Close. Not safe
// to call once serving has started.
func (s *Server) AddTenantViewFile(tenantName, docName, path string) error {
	e, err := s.tenantDoc(tenantName, docName)
	if err != nil {
		return err
	}
	mv, err := e.doc.LoadViewMmap(path)
	if err != nil {
		return fmt.Errorf("server: view file %s: %w", path, err)
	}
	if err := e.addView(mv, path, docName, tenantName); err != nil {
		mv.Release()
		return err
	}
	return nil
}

// addView enters a view under its canonical pattern; the names are for the
// duplicate error.
func (e *docEntry) addView(mv *viewjoin.MaterializedView, path, docName, tenantName string) error {
	name := mv.Pattern().String()
	if _, ok := e.views[name]; ok {
		return fmt.Errorf("server: view %s already registered for document %q%s", name, docName, forTenant(tenantName))
	}
	e.views[name] = &viewEntry{mv: mv, path: path}
	e.order = append(e.order, name)
	return nil
}

// tenantDoc resolves a registration target.
func (s *Server) tenantDoc(tenantName, docName string) (*docEntry, error) {
	t := s.tenants[tenantName]
	if t == nil {
		return nil, fmt.Errorf("server: unknown tenant %q", tenantName)
	}
	e, ok := t.docs[docName]
	if !ok {
		return nil, fmt.Errorf("server: unknown document %q%s", docName, forTenant(tenantName))
	}
	return e, nil
}

func forTenant(name string) string {
	if name == "" {
		return ""
	}
	return fmt.Sprintf(" (tenant %q)", name)
}

// eachView visits every registered view: tenants and documents in sorted
// order, registration order within a document.
func (s *Server) eachView(f func(tenant, doc, view string, ve *viewEntry)) {
	for _, tn := range sortedKeys(s.tenants) {
		t := s.tenants[tn]
		for _, dn := range sortedKeys(t.docs) {
			e := t.docs[dn]
			for _, vn := range e.order {
				f(tn, dn, vn, e.views[vn])
			}
		}
	}
}

// Close unmaps every view file, after draining, so no in-flight evaluation
// can touch an unmapped page. It is the shutdown path of cmd/vjserve, and
// idempotent.
func (s *Server) Close() error {
	s.Drain()
	var first error
	s.eachView(func(_, _, _ string, ve *viewEntry) {
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
	Tenants     int   `json:"tenants"`
}

func (s *Server) viewSnapshot() viewMetrics {
	m := viewMetrics{Tenants: len(s.tenants)}
	s.eachView(func(_, _, _ string, ve *viewEntry) {
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
	Tenant    string `json:"tenant,omitempty"`
	Document  string `json:"document"`
	View      string `json:"view"`
	Tier      string `json:"tier"` // memory, file
	SizeBytes int64  `json:"size_bytes"`
}

func (s *Server) viewRows() []viewRow {
	var rows []viewRow
	s.eachView(func(tn, dn, vn string, ve *viewEntry) {
		rows = append(rows, viewRow{Tenant: tn, Document: dn, View: vn, Tier: ve.tier(), SizeBytes: ve.mv.SizeBytes()})
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
