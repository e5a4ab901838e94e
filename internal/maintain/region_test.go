package maintain

import (
	"bytes"
	"fmt"
	"testing"

	"viewjoin/internal/dataset/xmark"
	"viewjoin/internal/store"
	"viewjoin/internal/tpq"
	"viewjoin/internal/xmltree"
)

// nth returns the k-th node (0-based, document order) with the given tag.
func nth(t testing.TB, d *xmltree.Document, tag string, k int) xmltree.NodeID {
	t.Helper()
	ids := d.NodesOfType(d.TypeByName(tag))
	if k >= len(ids) {
		t.Fatalf("document has %d <%s> nodes, want index %d", len(ids), tag, k)
	}
	return ids[k]
}

// pointerClasses returns how many pointer classes list l materializes.
func pointerClasses(l *store.ListFile) int {
	if l.Entries() == 0 {
		return 0
	}
	return int(l.PayloadBytes()-int64(l.Entries())*12) / (l.Entries() * 4)
}

// regionCase is one hand-built update whose maintenance must take a
// particular turn of the region logic.
type regionCase struct {
	name     string
	doc      string
	view     string
	op       xmltree.UpdateOp
	tag      string // the target is the k-th <tag>
	k        int
	fragment string
	// entries is each view node's list size after the update.
	entries []int
	// recomputed bounds Report.RecomputedEntries of the LE store from
	// below: a widened region recomputes more than the fragment holds.
	recomputed int
	// check, when set, inspects the LE and LEp successors.
	check func(t *testing.T, le, lep *store.ViewStore)
}

var regionCases = []regionCase{{
	// The first <a> has no <c> and is in no list; neither are its two <b>.
	// Appending a <c> below it makes the chain node qualify, and its side
	// branches join with it: the region is <a>'s subtree, not the fragment.
	name: "insert-qualifies-chain-node",
	doc:  `<r><a><b/><x><b/></x></a><a><c/><b/></a></r>`,
	view: "//a[//c]//b", op: xmltree.OpAppendChild, tag: "x", k: 0, fragment: `<c/>`,
	entries: []int{2, 2, 3}, recomputed: 4,
}, {
	// The same, but nothing was in any list before: every pointer class
	// appears with its first pointer.
	name: "insert-first-match",
	doc:  `<r><a><b/><b/></a></r>`,
	view: "//a[//c]//b", op: xmltree.OpInsertBefore, tag: "b", k: 1, fragment: `<c/>`,
	entries: []int{1, 1, 2}, recomputed: 4,
}, {
	// Deleting the first <a>'s only <c> takes the chain member out of its
	// list, and its <b> side branches with it.
	name: "delete-last-witness",
	doc:  `<r><a><b/><x><c/></x><b/></a><a><c/><b/></a></r>`,
	view: "//a[//c]//b", op: xmltree.OpDeleteSubtree, tag: "c", k: 0,
	entries: []int{1, 1, 1}, recomputed: 0,
}, {
	// <b> loses its <c>, and <a>'s only witness was that <b> — itself a
	// chain member: the region climbs to <a> and every list empties, so
	// every pointer class disappears with its last pointer.
	name: "delete-witness-is-chain-member",
	doc:  `<r><a><y><b><z><c/></z></b></y></a></r>`,
	view: "//a//b//c", op: xmltree.OpDeleteSubtree, tag: "c", k: 0,
	entries: []int{0, 0, 0},
}, {
	// A chain member keeps another witness: the region is just the dead
	// range, and the survivor behind it is re-addressed, not recomputed.
	name: "delete-keeps-witness",
	doc:  `<r><a><c/><b/><c/><b/></a><a><c/><b/></a></r>`,
	view: "//a[//c]//b", op: xmltree.OpDeleteSubtree, tag: "c", k: 0,
	entries: []int{2, 2, 3},
}, {
	// Unscoped list, same-type nesting left of the region: the three
	// nested <b> all end before the new one, so all three — the last record
	// before the region and its same-list ancestors — gain a following
	// pointer to it.
	name: "left-spine-nested",
	doc:  `<r><b><b><b/></b></b><x/></r>`,
	view: "//b", op: xmltree.OpAppendChild, tag: "x", k: 0, fragment: `<b/>`,
	entries: []int{4}, recomputed: 4,
	check: func(t *testing.T, le, _ *store.ViewStore) {
		if le.NumPointers() != 2+3 { // two descendant pointers, three following
			t.Errorf("LE holds %d pointers, want 5", le.NumPointers())
		}
	},
}, {
	// Scoped list: the record just before the region (the inner <d>)
	// belongs to the nested group of the inner <a>; the outer group's last
	// record before the region is the first <d>, which is not its ancestor
	// and yet is the one whose following pointer appears.
	name: "left-spine-of-the-spanning-group",
	doc:  `<r><a><d/><a><d/></a><y/></a></r>`,
	view: "//a//d", op: xmltree.OpAppendChild, tag: "y", k: 0, fragment: `<d/>`,
	entries: []int{2, 3}, recomputed: 3,
}, {
	// LEp keeps a following pointer only when its target is more than one
	// record away. <b>'s target is adjacent until a record of a nested
	// group lands between them: the left boundary flips and the class gets
	// its first pointer.
	name: "lep-left-boundary-appears",
	doc:  `<r><a><b/><c/><b/></a></r>`,
	view: "//a//b", op: xmltree.OpAppendChild, tag: "c", k: 0, fragment: `<a><b/></a>`,
	entries: []int{2, 3},
	check: func(t *testing.T, _, lep *store.ViewStore) {
		if n := pointerClasses(lep.Lists[1]); n != 1 {
			t.Errorf("LEp <b> list materializes %d pointer classes, want following only", n)
		}
	},
}, {
	// And back: with the nested group gone the target is adjacent again,
	// the pointer is dropped and the class with it.
	name: "lep-left-boundary-disappears",
	doc:  `<r><a><b/><c><a><b/></a></c><b/></a></r>`,
	view: "//a//b", op: xmltree.OpDeleteSubtree, tag: "a", k: 1,
	entries: []int{1, 2},
	check: func(t *testing.T, _, lep *store.ViewStore) {
		if n := pointerClasses(lep.Lists[1]); n != 0 {
			t.Errorf("LEp <b> list materializes %d pointer classes, want none", n)
		}
	},
}, {
	// The right boundary: the region's last record is adjacent to the
	// first record behind it, so LEp drops the new record's own pointer
	// while the record before the region now points two away.
	name: "lep-right-boundary",
	doc:  `<r><a><b/><c/><b/><b/></a></r>`,
	view: "//a//b", op: xmltree.OpAppendChild, tag: "c", k: 0, fragment: `<a><b/><b/></a>`,
	entries: []int{2, 5},
}, {
	// The descendant class appears with the first same-type nesting.
	name: "descendant-class-appears",
	doc:  `<r><a><b/></a></r>`,
	view: "//a//b", op: xmltree.OpAppendChild, tag: "a", k: 0, fragment: `<a><b/></a>`,
	entries: []int{2, 2},
	check: func(t *testing.T, le, _ *store.ViewStore) {
		if n := pointerClasses(le.Lists[0]); n != 2 { // descendant + child
			t.Errorf("LE <a> list materializes %d pointer classes, want 2", n)
		}
	},
}, {
	// A pc-edge: the new <b> is a grandchild, not a child, of the chain
	// member, whose child pointer must keep skipping it.
	name: "pc-edge-skips-grandchild",
	doc:  `<r><a><x/><b/></a></r>`,
	view: "//a/b", op: xmltree.OpAppendChild, tag: "x", k: 0, fragment: `<b/>`,
	entries: []int{1, 1},
}, {
	// Deleting the only match empties every list.
	name: "delete-empties-lists",
	doc:  `<r><x><a><b/></a></x></r>`,
	view: "//a//b", op: xmltree.OpDeleteSubtree, tag: "a", k: 0,
	entries: []int{0, 0},
}}

// TestRegionCases drives every case through every scheme and holds the
// successor to the re-materialized oracle, byte for byte.
func TestRegionCases(t *testing.T) {
	for _, tc := range regionCases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := xmltree.ParseString(tc.doc)
			if err != nil {
				t.Fatal(err)
			}
			u := xmltree.Update{Op: tc.op, Target: nth(t, d, tc.tag, tc.k)}
			if tc.fragment != "" {
				if u.Fragment, err = xmltree.ParseString(tc.fragment); err != nil {
					t.Fatal(err)
				}
			}
			au, err := d.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			v := tpq.MustParse(tc.view)
			got := map[store.Kind]*store.ViewStore{}
			for _, k := range kinds {
				old := mustStore(t, d, v, k, 64)
				before := storeBytes(t, old)
				next, rep, err := View(old, au)
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				if err := Verify(next, au.New); err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				if !bytes.Equal(storeBytes(t, old), before) {
					t.Fatalf("%v: maintenance mutated the predecessor", k)
				}
				if rep.FastPath {
					t.Fatalf("%v: a view-type update took the fast path", k)
				}
				if k == store.Linked && rep.RecomputedEntries < tc.recomputed {
					t.Errorf("recomputed %d records, want at least %d", rep.RecomputedEntries, tc.recomputed)
				}
				for q, l := range next.Lists {
					if l.Entries() != tc.entries[q] {
						t.Errorf("%v: list %d holds %d records, want %d", k, q, l.Entries(), tc.entries[q])
					}
				}
				got[k] = next
			}
			if tc.check != nil {
				tc.check(t, got[store.Linked], got[store.LinkedPartial])
			}
		})
	}
}

// TestRegionCasesCompose replays every insert case followed by the delete
// of what it inserted: the second maintenance starts from a maintained
// store, and must land byte-identically on the original.
func TestRegionCasesCompose(t *testing.T) {
	for _, tc := range regionCases {
		if tc.op == xmltree.OpDeleteSubtree {
			continue
		}
		d, _ := xmltree.ParseString(tc.doc)
		frag, _ := xmltree.ParseString(tc.fragment)
		au, err := d.Apply(xmltree.Update{Op: tc.op, Target: nth(t, d, tc.tag, tc.k), Fragment: frag})
		if err != nil {
			t.Fatal(err)
		}
		back, err := au.New.Apply(xmltree.Update{Op: xmltree.OpDeleteSubtree, Target: au.FragBase})
		if err != nil {
			t.Fatal(err)
		}
		v := tpq.MustParse(tc.view)
		for _, k := range kinds {
			orig := mustStore(t, d, v, k, 64)
			mid, _, err := View(orig, au)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, k, err)
			}
			end, _, err := View(mid, back)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, k, err)
			}
			if err := store.CheckEquivalent(end, orig); err != nil {
				t.Fatalf("%s %v: insert then delete does not restore the store: %v", tc.name, k, err)
			}
		}
	}
}

// TestRegionIsTheFragment pins the common case: when no chain node changes
// its membership, what is recomputed is the fragment's records, the chain's
// and a record or two per list — however long the lists are.
func TestRegionIsTheFragment(t *testing.T) {
	var doc bytes.Buffer
	doc.WriteString("<r><s>")
	for i := 0; i < 500; i++ {
		fmt.Fprintf(&doc, "<a><b/><c/><b/></a>")
	}
	doc.WriteString("</s></r>")
	d, err := xmltree.ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	frag, _ := xmltree.ParseString(`<a><b/><c/></a>`)
	v := tpq.MustParse("//s//a[//c]//b")
	old := mustStore(t, d, v, store.LinkedPartial, 4096)
	for _, u := range []xmltree.Update{
		{Op: xmltree.OpInsertBefore, Target: nth(t, d, "a", 250), Fragment: frag},
		{Op: xmltree.OpDeleteSubtree, Target: nth(t, d, "a", 250)},
		{Op: xmltree.OpDeleteSubtree, Target: nth(t, d, "b", 100)},
	} {
		au, err := d.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		next, rep, err := View(old, au)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(next, au.New); err != nil {
			t.Fatal(err)
		}
		// 3 fragment records, 1 chain record (<s>), and per list the record
		// before the region and one spine.
		if limit := 3 + 1 + 2*v.Size(); rep.RecomputedEntries > limit {
			t.Errorf("%v recomputed %d of %d records, want at most %d",
				u.Op, rep.RecomputedEntries, next.TotalEntries(), limit)
		}
	}
}

// TestLocalityOnXMark is the locality assertion as a count, not a time: on
// the XMark scale-1 document, with the five views of Q13 and Q14 and the
// benchmark's nine-kind update rotation aimed at <item> rows, every
// maintenance recomputes at most the fragment's nodes, the chain's and a
// small constant per list — out of tens of thousands of records — and
// still lands on the oracle's bytes.
func TestLocalityOnXMark(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the scale-1 XMark document")
	}
	const (
		itemFragment    = `<item><location/><quantity/><name/><description><text><keyword/></text></description></item>`
		childFragment   = `<description><text><keyword/><keyword/></text></description>`
		foreignFragment = `<ext><zline/><zline/></ext>`
	)
	rotation := []struct {
		op       xmltree.UpdateOp
		fragment string
	}{
		{xmltree.OpInsertBefore, itemFragment}, {xmltree.OpAppendChild, childFragment}, {xmltree.OpDeleteSubtree, ""},
		{xmltree.OpInsertBefore, foreignFragment}, {xmltree.OpAppendChild, childFragment}, {xmltree.OpDeleteSubtree, ""},
		{xmltree.OpInsertBefore, itemFragment}, {xmltree.OpAppendChild, foreignFragment}, {xmltree.OpDeleteSubtree, ""},
	}
	d := xmark.Scale(1)
	var stores []*store.ViewStore
	for _, v := range []string{"//site//item/quantity", "//regions", "//location", "//site//item//name", "//description//keyword"} {
		stores = append(stores, mustStore(t, d, tpq.MustParse(v), store.LinkedPartial, 0))
	}
	for step, u := range rotation {
		upd := xmltree.Update{Op: u.op, Target: nth(t, d, "item", 97+211*step)}
		size := d.SubtreeSize(upd.Target)
		if u.fragment != "" {
			upd.Fragment, _ = xmltree.ParseString(u.fragment)
			size = upd.Fragment.NumNodes()
		}
		au, err := d.Apply(upd)
		if err != nil {
			t.Fatal(err)
		}
		depth := int(d.Node(upd.Target).Level) + 1
		for i, old := range stores {
			next, rep, err := View(old, au)
			if err != nil {
				t.Fatal(err)
			}
			if limit := size + depth + 2*old.View.Size(); rep.RecomputedEntries > limit {
				t.Errorf("step %d (%v) view %s: recomputed %d of %d records, want at most %d",
					step, u.op, old.View, rep.RecomputedEntries, next.TotalEntries(), limit)
			}
			if err := Verify(next, au.New); err != nil {
				t.Fatalf("step %d view %s: %v", step, old.View, err)
			}
			stores[i] = next
		}
		d = au.New
	}
}
