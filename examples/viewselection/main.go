// Viewselection: the paper's §V cost-based view selection on the Nasa
// dataset (Table II / Example 5.1). Given a pool of materialized views,
// the greedy heuristic weighs each view's list sizes against the
// interleaving conditions it leaves unjoined, and picks a cheaper covering
// set than a size-only heuristic would.
//
// Run with: go run ./examples/viewselection
package main

import (
	"fmt"
	"log"

	"viewjoin"
)

func main() {
	d := viewjoin.GenerateNasa(2000)
	q := viewjoin.MustParseQuery("//dataset//tableHead[//tableLink//title]//field//definition//para")
	fmt.Printf("Nasa-like document: %d nodes\nquery: %s\n\n", d.NumNodes(), q)

	poolPatterns, err := viewjoin.ParseViews(
		"//dataset//definition; //dataset//tableHead; //field//para; " +
			"//definition; //tableLink//title; //field//definition//para")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("candidate pool (Table II):")
	var pool []*viewjoin.MaterializedView
	for i, p := range poolPatterns {
		mv, err := d.MaterializeView(p, viewjoin.SchemeLE, nil)
		if err != nil {
			log.Fatal(err)
		}
		pool = append(pool, mv)
		cost, err := viewjoin.ViewCost(mv, q, viewjoin.DefaultLambda)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  v%d %-28s %7d bytes   c(v,Q) = %.0f\n", i+1, p, mv.SizeBytes(), cost)
	}

	costBased, err := viewjoin.SelectViews(pool, q, viewjoin.DefaultLambda)
	if err != nil {
		log.Fatal(err)
	}
	bySize, err := viewjoin.SelectViewsBySize(pool, q)
	if err != nil {
		log.Fatal(err)
	}

	show := func(label string, sel []*viewjoin.MaterializedView) int {
		fmt.Printf("\n%s:\n", label)
		for _, v := range sel {
			fmt.Printf("  %s\n", v.Pattern())
		}
		res, err := viewjoin.Evaluate(nil, d, q, sel, viewjoin.EngineViewJoin, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  -> %d matches, %v, %d elements scanned\n",
			len(res.Matches), res.Stats.Duration.Round(10e3), res.Stats.ElementsScanned)
		return len(res.Matches)
	}
	a := show("cost-based selection (λ=1, the paper's heuristic)", costBased)
	b := show("size-only baseline selection", bySize)
	if a != b {
		log.Fatalf("selections disagree: %d vs %d matches", a, b)
	}
	fmt.Println("\nboth selections answer the query identically; the cost model")
	fmt.Println("prefers views that precompute more of the query's joins.")
}
