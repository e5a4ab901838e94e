package viewjoin_test

import (
	"fmt"

	"viewjoin"
)

// Evaluate a twig query over a small document using the LEp scheme and the
// ViewJoin engine.
func ExampleEvaluate() {
	doc, _ := viewjoin.ParseDocumentString(
		`<lib><book><author/><chapter><section/><section/></chapter></book><book><chapter/></book></lib>`)
	query, _ := viewjoin.ParseQuery("//book[//author]//chapter//section")
	views, _ := viewjoin.ParseViews("//book//chapter; //author; //section")

	mv, _ := doc.MaterializeViews(views, viewjoin.SchemeLEp)
	res, _ := viewjoin.Evaluate(nil, doc, query, mv, viewjoin.EngineViewJoin, nil)

	tags := query.Labels() // column i binds query node i
	for _, m := range res.Matches {
		for i, n := range m {
			if i > 0 {
				fmt.Print(" ")
			}
			fmt.Printf("%s@%d", tags[i], n.Start)
		}
		fmt.Println()
	}
	// Output:
	// book@2 author@3 chapter@5 section@6
	// book@2 author@3 chapter@5 section@8
}

// Validate a covering view set and count its interleaving conditions.
func ExampleInterViewEdges() {
	query := viewjoin.MustParseQuery("//a//b//c//d")
	views, _ := viewjoin.ParseViews("//a//c; //b//d")
	if err := viewjoin.ValidateViewSet(query, views); err != nil {
		fmt.Println("invalid:", err)
		return
	}
	fmt.Println("inter-view edges:", viewjoin.InterViewEdges(query, views))
	// Output:
	// inter-view edges: 3
}

// Pick a covering view set with the paper's cost-based heuristic.
func ExampleSelectViews() {
	doc, _ := viewjoin.ParseDocumentString(
		`<r><a><b><c/></b><b><c/><c/></b></a><a><b/></a></r>`)
	query := viewjoin.MustParseQuery("//a//b//c")
	pool, _ := viewjoin.ParseViews("//a//b; //c; //a; //b//c")

	var mviews []*viewjoin.MaterializedView
	for _, p := range pool {
		mv, _ := doc.MaterializeView(p, viewjoin.SchemeLE, nil)
		mviews = append(mviews, mv)
	}
	selected, _ := viewjoin.SelectViews(mviews, query, viewjoin.DefaultLambda)
	for _, v := range selected {
		fmt.Println(v.Pattern())
	}
	// Output:
	// //b//c
	// //a
}
