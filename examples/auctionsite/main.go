// Auctionsite: the paper's XMark workload end to end — generate an
// auction-site document, materialize covering views in all four storage
// schemes, and compare every applicable engine/scheme combination on a
// path query and a twig query (the seven combinations of the paper's
// Table I).
//
// Run with: go run ./examples/auctionsite
package main

import (
	"fmt"
	"log"

	"viewjoin"
)

func main() {
	d := viewjoin.GenerateXMark(0.5)
	fmt.Printf("XMark-like auction site: %d element nodes\n\n", d.NumNodes())

	// A path query (InterJoin-eligible) and a twig query.
	pathQ := viewjoin.MustParseQuery("//site/open_auctions/open_auction/bidder/increase")
	pathViews, err := viewjoin.ParseViews("//site//increase; //open_auctions//open_auction//bidder")
	if err != nil {
		log.Fatal(err)
	}
	twigQ := viewjoin.MustParseQuery("//site//item[//description//keyword]/name")
	twigViews, err := viewjoin.ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("path query %s\n", pathQ)
	compare(d, pathQ, pathViews, true)
	fmt.Printf("\ntwig query %s\n", twigQ)
	compare(d, twigQ, twigViews, false)
}

func compare(d *viewjoin.Document, q *viewjoin.Query, views []*viewjoin.Query, withIJ bool) {
	type comboT struct {
		engine viewjoin.Engine
		scheme viewjoin.StorageScheme
	}
	combos := []comboT{
		{viewjoin.EngineTwigStack, viewjoin.SchemeElement},
		{viewjoin.EngineTwigStack, viewjoin.SchemeLE},
		{viewjoin.EngineTwigStack, viewjoin.SchemeLEp},
		{viewjoin.EngineViewJoin, viewjoin.SchemeElement},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLE},
		{viewjoin.EngineViewJoin, viewjoin.SchemeLEp},
	}
	if withIJ {
		combos = append([]comboT{{viewjoin.EngineInterJoin, viewjoin.SchemeTuple}}, combos...)
	}

	cache := map[viewjoin.StorageScheme][]*viewjoin.MaterializedView{}
	matches := -1
	for _, c := range combos {
		mv, ok := cache[c.scheme]
		if !ok {
			var err error
			mv, err = d.MaterializeViews(views, c.scheme)
			if err != nil {
				log.Fatal(err)
			}
			cache[c.scheme] = mv
		}
		res, err := viewjoin.Evaluate(nil, d, q, mv, c.engine, nil)
		if err != nil {
			log.Fatal(err)
		}
		if matches == -1 {
			matches = len(res.Matches)
		} else if matches != len(res.Matches) {
			log.Fatalf("%v+%v disagrees: %d vs %d matches", c.engine, c.scheme, len(res.Matches), matches)
		}
		fmt.Printf("  %3s+%-4s %10v  scanned=%-7d cmp=%-8d derefs=%-6d pages=%d\n",
			c.engine, c.scheme, res.Stats.Duration.Round(10e3),
			res.Stats.ElementsScanned, res.Stats.Comparisons, res.Stats.PointerDerefs, res.Stats.PagesRead)
	}
	fmt.Printf("  all engines agree on %d matches\n", matches)
}
