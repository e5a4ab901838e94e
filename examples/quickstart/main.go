// Quickstart: parse an XML document, materialize a set of views in the
// partial linked-element scheme, and answer a twig query with ViewJoin.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"viewjoin"
)

const doc = `
<library>
  <shelf>
    <book>
      <author><name/></author>
      <chapter><section/><section/></chapter>
    </book>
    <book>
      <chapter><section/></chapter>
    </book>
  </shelf>
  <shelf>
    <book>
      <author><name/></author>
      <chapter/>
    </book>
  </shelf>
</library>`

func main() {
	// 1. Parse the document: every element gets a <start, end, level>
	// region label, so structural relationships are O(1).
	d, err := viewjoin.ParseDocumentString(doc)
	if err != nil {
		log.Fatal(err)
	}

	// 2. A tree pattern query: books that have an author, and all their
	// chapter sections. Every query node is an output node.
	q, err := viewjoin.ParseQuery("//book[//author]//chapter//section")
	if err != nil {
		log.Fatal(err)
	}

	// 3. A covering view set: each view is a subpattern of the query and
	// the views' element types are disjoint. The book//chapter join is
	// precomputed inside the first view.
	views, err := viewjoin.ParseViews("//book//chapter; //author; //section")
	if err != nil {
		log.Fatal(err)
	}
	if err := viewjoin.ValidateViewSet(q, views); err != nil {
		log.Fatal(err)
	}

	// 4. Materialize the views in the LEp scheme: per-node solution lists
	// plus the child pointers and the long-distance following pointers.
	mviews, err := d.MaterializeViews(views, viewjoin.SchemeLEp)
	if err != nil {
		log.Fatal(err)
	}
	for _, mv := range mviews {
		fmt.Printf("view %-18s %3d entries, %2d pointers, %d bytes on disk\n",
			mv.Pattern(), mv.NumEntries(), mv.NumPointers(), mv.SizeBytes())
	}

	// 5. Evaluate with ViewJoin.
	res, err := viewjoin.Evaluate(nil, d, q, mviews, viewjoin.EngineViewJoin, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s -> %d matches (%d elements scanned, %d comparisons)\n",
		q, len(res.Matches), res.Stats.ElementsScanned, res.Stats.Comparisons)
	labels := q.Labels()
	for _, m := range res.Matches {
		parts := make([]string, len(m))
		for i, n := range m {
			parts[i] = fmt.Sprintf("%s@%d", labels[i], n.Start)
		}
		fmt.Println("  ", strings.Join(parts, "  "))
	}

	// 6. Cross-check against the brute-force reference evaluator.
	direct := viewjoin.EvaluateDirect(d, q)
	fmt.Printf("\ndirect evaluation agrees: %v\n", len(direct.Matches) == len(res.Matches))
}
