package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"viewjoin"
	"viewjoin/internal/dataset/nasa"
	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/workload"
	"viewjoin/internal/xmltree"
)

// sizes fixes the input scale of a run. The full configuration is the
// benchmark; quick is the smoke configuration the tests use.
type sizes struct {
	xmarkScale   float64 // workload document, XMark family
	nasaDatasets int     // workload document, Nasa family
	oracleXMark  float64 // reduced document for the brute-force oracle check
	oracleNasa   int
	div          int // divisor applied to every workload's per-round op count
}

var (
	fullSizes  = sizes{xmarkScale: 4, nasaDatasets: 16000, oracleXMark: 0.25, oracleNasa: 1000, div: 1}
	quickSizes = sizes{xmarkScale: 0.05, nasaDatasets: 200, oracleXMark: 0.02, oracleNasa: 50, div: 8}
)

// catQuery is one catalogue query with its covering view set, as pattern
// text: the program under test only ever sees text it parses itself.
type catQuery struct {
	name  string
	query string
	views []string
	path  bool
}

func fromWorkload(w workload.Query) catQuery {
	c := catQuery{name: w.Name, query: w.Pattern.String(), path: w.Path}
	for _, v := range w.Views {
		c.views = append(c.views, v.String())
	}
	return c
}

// xmarkCatalogue is the paper's XMark query set, path queries first (14).
func xmarkCatalogue() []catQuery {
	var out []catQuery
	for _, w := range append(workload.XMarkPath(), workload.XMarkTwig()...) {
		out = append(out, fromWorkload(w))
	}
	return out
}

// nasaCatalogue is N1, N2, N5-N8 plus the Table III interleaving cases
// PV1-PV4, which evaluate one path query over four different view sets (10).
func nasaCatalogue() []catQuery {
	all := workload.All()
	var out []catQuery
	for _, n := range []string{"N1", "N2", "N5", "N6", "N7", "N8"} {
		out = append(out, fromWorkload(all[n]))
	}
	for _, c := range workload.TableIII()[:4] {
		out = append(out, fromWorkload(workload.Query{Name: c.Name, Pattern: c.Query, Views: c.Views, Path: true}))
	}
	return out
}

// catalogueNames lists every catalogue query name, for the per-query
// layer metrics.
func catalogueNames() []string {
	var out []string
	for _, c := range append(xmarkCatalogue(), nasaCatalogue()...) {
		out = append(out, c.name)
	}
	return out
}

// xmlText renders a generated tree as XML text.
func xmlText(t *xmltree.Document) ([]byte, error) {
	var buf bytes.Buffer
	if err := xmltree.Write(&buf, t); err != nil {
		return nil, fmt.Errorf("write xml: %w", err)
	}
	return buf.Bytes(), nil
}

func xmarkXML(scale float64, seed int64) ([]byte, error) {
	return xmlText(xmark.Generate(xmark.Config{Scale: scale, Seed: seed}))
}

func nasaXML(datasets int, seed int64) ([]byte, error) {
	return xmlText(nasa.Generate(nasa.Config{Datasets: datasets, Seed: seed}))
}

// plan is one catalogue query bound to materialized views and prepared
// for one engine, with the result the verify step established for it.
type plan struct {
	cat      catQuery
	q        *viewjoin.Query
	views    []*viewjoin.MaterializedView
	prepared *viewjoin.PreparedQuery
	count    int // expected match count, set by verify
}

// viewCache materializes each distinct (pattern, scheme) once per
// document, as a deployment would: catalogue queries share views such as
// //people and //site.
type viewCache struct {
	doc   *viewjoin.Document
	views map[string]*viewjoin.MaterializedView
	order []*viewjoin.MaterializedView
}

func newViewCache(doc *viewjoin.Document) *viewCache {
	return &viewCache{doc: doc, views: make(map[string]*viewjoin.MaterializedView)}
}

func (vc *viewCache) get(pattern string, scheme viewjoin.StorageScheme) (*viewjoin.MaterializedView, error) {
	key := scheme.String() + " " + pattern
	if mv, ok := vc.views[key]; ok {
		return mv, nil
	}
	q, err := viewjoin.ParseQuery(pattern)
	if err != nil {
		return nil, fmt.Errorf("view %s: %w", pattern, err)
	}
	mv, err := vc.doc.MaterializeView(q, scheme, nil)
	if err != nil {
		return nil, fmt.Errorf("materialize %s: %w", pattern, err)
	}
	vc.views[key] = mv
	vc.order = append(vc.order, mv)
	return mv, nil
}

// buildPlans materializes the catalogue's views in scheme and prepares
// every query for eng. pathOnly keeps the path queries (PathStack and
// InterJoin evaluate nothing else).
func buildPlans(vc *viewCache, cat []catQuery, scheme viewjoin.StorageScheme, eng viewjoin.Engine, pathOnly bool) ([]*plan, error) {
	var out []*plan
	for _, c := range cat {
		if pathOnly && !c.path {
			continue
		}
		q, err := viewjoin.ParseQuery(c.query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		p := &plan{cat: c, q: q}
		for _, v := range c.views {
			mv, err := vc.get(v, scheme)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.name, err)
			}
			p.views = append(p.views, mv)
		}
		p.prepared, err = viewjoin.Prepare(vc.doc, q, p.views, eng, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: prepare %v: %w", c.name, eng, err)
		}
		out = append(out, p)
	}
	return out, nil
}

// rowsSum is an order-sensitive FNV-1a checksum over the rows' start
// labels: two results agree only when they hold the same bindings in the
// same order.
func rowsSum(rows [][]viewjoin.Node) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, row := range rows {
		for _, n := range row {
			binary.LittleEndian.PutUint32(b[:], uint32(n.Start))
			h.Write(b[:])
		}
	}
	return h.Sum64()
}
