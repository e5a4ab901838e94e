// Diskbased: the paper's §IV memory-based vs disk-based output approaches.
// The memory-based approach keeps each intermediate solution window (the
// DAG F) in memory until it is enumerated. The disk-based approach is
// modelled in the cost counters: every window flush is charged as spooled
// through scratch pages and read back, the extra I/O of the paper's Table
// V. The window itself still stays in memory, so both runs report the same
// peak.
//
// Run with: go run ./examples/diskbased
package main

import (
	"fmt"
	"log"

	"viewjoin"
)

func main() {
	d := viewjoin.GenerateXMark(1.0)
	q := viewjoin.MustParseQuery("//site//item[//description//keyword]/name")
	views, err := viewjoin.ParseViews("//site//item//name; //description//keyword")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("document: %d nodes, query: %s\n\n", d.NumNodes(), q)

	mviews, err := d.MaterializeViews(views, viewjoin.SchemeLE)
	if err != nil {
		log.Fatal(err)
	}

	for _, eng := range []viewjoin.Engine{viewjoin.EngineTwigStack, viewjoin.EngineViewJoin} {
		mem, err := viewjoin.Evaluate(nil, d, q, mviews, eng, nil)
		if err != nil {
			log.Fatal(err)
		}
		disk, err := viewjoin.Evaluate(nil, d, q, mviews, eng, &viewjoin.RunOptions{DiskBased: true})
		if err != nil {
			log.Fatal(err)
		}
		if len(mem.Matches) != len(disk.Matches) {
			log.Fatalf("%v: approaches disagree (%d vs %d matches)", eng, len(mem.Matches), len(disk.Matches))
		}
		fmt.Printf("%s, %d matches\n", eng, len(mem.Matches))
		fmt.Printf("  memory-based: %8v  peakMem=%-8d pagesRead=%-5d pagesWritten=%d\n",
			mem.Stats.Duration.Round(10e3), mem.Stats.PeakMemoryBytes, mem.Stats.PagesRead, mem.Stats.PagesWritten)
		fmt.Printf("  disk-based:   %8v  peakMem=%-8d pagesRead=%-5d pagesWritten=%d\n\n",
			disk.Stats.Duration.Round(10e3), disk.Stats.PeakMemoryBytes, disk.Stats.PagesRead, disk.Stats.PagesWritten)
	}
	fmt.Println("the disk-based runs are charged the page I/O of spooling each window,")
	fmt.Println("mirroring the paper's Table V; the windows themselves stay in memory.")
}
