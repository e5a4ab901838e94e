package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"viewjoin/internal/counters"
	"viewjoin/internal/testutil"
	"viewjoin/internal/views"
)

// fuzzSeedStores builds one store of each kind over a small random
// document — the valid-file seeds for FuzzReadViewStore (the committed
// corpus holds the same images plus truncated and bit-flipped variants).
func fuzzSeedStores(tb testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(42))
	d := testutil.RandomDoc(rng, 60, nil)
	v := testutil.RandomPattern(rng, 3, nil)
	m, err := views.Materialize(d, v)
	if err != nil {
		tb.Fatal(err)
	}
	var out [][]byte
	for _, kind := range []Kind{Tuple, Element, Linked, LinkedPartial} {
		s, err := Build(m, kind, 128)
		if err != nil {
			tb.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			tb.Fatal(err)
		}
		out = append(out, buf.Bytes())
	}
	return out
}

// FuzzReadViewStore feeds arbitrary bytes — seeded with valid store images
// of all four kinds, truncations, and header corruptions — to the
// zero-copy loader. Whatever loads must be fully scannable and seekable
// without panics or out-of-bounds access: the loader's header checks and
// pointer validation are the only line of defense, because evaluation
// trusts loaded segments.
//
// Every input additionally runs through the mmap arm: the bytes are
// written to a file, mapped via OpenMmap, and loaded from the mapping.
// Mapped and heap loads must agree exactly — same accept/reject decision,
// same content — and a truncated or misaligned mapping must surface the
// usual load error, never fault (the mapping's length bounds every read,
// exactly like a heap slice's).
func FuzzReadViewStore(f *testing.F) {
	for _, img := range fuzzSeedStores(f) {
		f.Add(img)
		f.Add(img[:len(img)/2]) // truncated mid-body
		f.Add(img[:9])          // truncated mid-header
		bad := append([]byte(nil), img...)
		bad[5] ^= 0x7 // kind byte
		f.Add(bad)
		wild := append([]byte(nil), img...)
		wild[len(wild)-3] ^= 0xFF // pointer/record bytes near the tail
		f.Add(wild)
		// Mmap-arm seeds: lengths that leave the mapping misaligned against
		// the page grid the format promises — one byte short of / past a
		// segment boundary, and a valid image with trailing garbage.
		f.Add(img[:len(img)-1])
		f.Add(append(append([]byte(nil), img...), 0x00))
		f.Add(img[:len(img)/2+1])
	}
	f.Add([]byte(persistMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadViewStoreBytes(append([]byte(nil), data...))
		mmapCheck(t, data, err == nil, s)
		if err != nil {
			return
		}
		// The store loaded: every record must decode and every stored pointer
		// must seek somewhere in-bounds (valid or cleanly invalid).
		var c counters.Counters
		io := counters.NewIO(&c, 0)
		if s.Tuples != nil {
			n := 0
			for cur := s.Tuples.Open(io); cur.Valid(); cur.Next() {
				n++
			}
			if n != s.Tuples.Entries() {
				t.Fatalf("tuple scan saw %d records, header says %d", n, s.Tuples.Entries())
			}
			return
		}
		for q, l := range s.Lists {
			probe := l.Open(io)
			n := 0
			for cur := l.Open(io); cur.Valid(); cur.Next() {
				it := current(cur)
				if !it.Following.IsNil() {
					probe.Seek(it.Following)
					if !probe.Valid() {
						t.Fatalf("list %d record %d: validated following pointer seeks invalid", q, n)
					}
				}
				if !it.Descendant.IsNil() {
					probe.Seek(it.Descendant)
					if !probe.Valid() {
						t.Fatalf("list %d record %d: validated descendant pointer seeks invalid", q, n)
					}
				}
				for ci, cq := range s.View.Nodes[q].Children {
					if ptr := it.Children[ci]; !ptr.IsNil() {
						cp := s.Lists[cq].Open(io)
						cp.Seek(ptr)
						if !cp.Valid() {
							t.Fatalf("list %d record %d: validated child pointer seeks invalid", q, n)
						}
					}
				}
				n++
			}
			if n != l.Entries() {
				t.Fatalf("list %d scan saw %d records, header says %d", q, n, l.Entries())
			}
		}
		// A loaded store must re-serialize and re-load to identical content.
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-serialize loaded store: %v", err)
		}
		s2, err := ReadViewStoreBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("re-load serialized store: %v", err)
		}
		if !sameContent(s, s2) {
			t.Fatalf("re-serialized store content differs")
		}
	})
}

// TestWriteFuzzCorpusSeeds regenerates the committed corpus entries for
// the mmap-arm seed shapes (misaligned truncations, trailing bytes) from
// the deterministic seed stores. It is a corpus maintenance tool, not a
// test: set VJSTORE_WRITE_CORPUS=1 to (re)write the files.
func TestWriteFuzzCorpusSeeds(t *testing.T) {
	if os.Getenv("VJSTORE_WRITE_CORPUS") == "" {
		t.Skip("corpus writer; set VJSTORE_WRITE_CORPUS=1 to run")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReadViewStore")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i, img := range fuzzSeedStores(t) {
		for j, variant := range [][]byte{
			img[:len(img)-1],
			append(append([]byte(nil), img...), 0x00),
			img[:len(img)/2+1],
		} {
			name := filepath.Join(dir, fmt.Sprintf("seed-mmap-%d%d", i, j))
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", variant)
			if err := os.WriteFile(name, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// mmapCheck is the mmap-path arm of FuzzReadViewStore: it loads the same
// bytes through a file mapping and demands the exact behavior of the heap
// path. heapOK/heapStore are the heap path's outcome for comparison.
func mmapCheck(t *testing.T, data []byte, heapOK bool, heapStore *ViewStore) {
	path := filepath.Join(t.TempDir(), "fuzz.vjst")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("mmap arm: write: %v", err)
	}
	mb, err := OpenMmap(path)
	if err != nil {
		t.Fatalf("mmap arm: open: %v", err)
	}
	defer mb.Close()
	s, err := ReadViewStoreBytes(mb.Bytes())
	if (err == nil) != heapOK {
		t.Fatalf("mmap arm: mapped load err=%v, heap load ok=%v — backends disagree", err, heapOK)
	}
	if err != nil {
		return
	}
	if !sameContent(heapStore, s) {
		t.Fatal("mmap arm: mapped and heap loads differ in content")
	}
}
