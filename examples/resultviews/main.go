// Resultviews: the paper's §IV-B observation that ViewJoin's intermediate
// DAG doubles as a materialized view of the query result. A query's answer
// is captured as a new linked-element view — without re-evaluating the
// pattern — and then used to answer a larger query that contains it.
//
// Run with: go run ./examples/resultviews
package main

import (
	"fmt"
	"log"

	"viewjoin"
)

func main() {
	d := viewjoin.GenerateNasa(1500)
	fmt.Printf("Nasa-like document: %d nodes\n\n", d.NumNodes())

	// Step 1: answer a frequently used sub-pattern with ViewJoin.
	sub := viewjoin.MustParseQuery("//field//definition//para")
	subViews, err := viewjoin.ParseViews("//field//definition; //para")
	if err != nil {
		log.Fatal(err)
	}
	mv, err := d.MaterializeViews(subViews, viewjoin.SchemeLE)
	if err != nil {
		log.Fatal(err)
	}
	res, err := viewjoin.Evaluate(nil, d, sub, mv, viewjoin.EngineViewJoin, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 1: %s -> %d matches (%v)\n", sub, len(res.Matches), res.Stats.Duration.Round(10e3))

	// Step 2: store that result as a view — the window DAG's content becomes
	// per-node lists with child/descendant/following pointers, no
	// re-evaluation of the pattern needed.
	resultView, err := d.MaterializeResult(sub, res, viewjoin.SchemeLE, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 2: result captured as a %s view: %d entries, %d pointers, %d bytes\n",
		resultView.Scheme(), resultView.NumEntries(), resultView.NumPointers(), resultView.SizeBytes())

	// Step 3: answer a bigger query that contains the sub-pattern, reusing
	// the captured result as one of its covering views.
	big := viewjoin.MustParseQuery("//dataset//tableHead//field//definition//para")
	extra, err := viewjoin.ParseViews("//dataset//tableHead")
	if err != nil {
		log.Fatal(err)
	}
	extraMV, err := d.MaterializeViews(extra, viewjoin.SchemeLE)
	if err != nil {
		log.Fatal(err)
	}
	cover := append([]*viewjoin.MaterializedView{resultView}, extraMV...)

	res2, err := viewjoin.Evaluate(nil, d, big, cover, viewjoin.EngineViewJoin, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("step 3: %s via the result view -> %d matches (%v, %d elements scanned)\n",
		big, len(res2.Matches), res2.Stats.Duration.Round(10e3), res2.Stats.ElementsScanned)

	// Cross-check against direct evaluation.
	want := viewjoin.EvaluateDirect(d, big)
	fmt.Printf("\ndirect evaluation agrees: %v (%d matches)\n",
		len(want.Matches) == len(res2.Matches), len(want.Matches))
}
