package viewjoin

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"viewjoin/internal/store"
	"viewjoin/internal/xmltree"
)

// ErrViewTruncated reports that a saved-view stream ended before the
// serialized content it promised — a partial write, a truncated file, or a
// stream cut mid-transfer. Load errors match it with errors.Is.
var ErrViewTruncated = errors.New("viewjoin: saved view is truncated")

// DocMismatchError reports that a saved view was materialized from a
// different document than the one it is being loaded into: the view's
// pointers and region labels are only meaningful for its own document.
// Load errors match it with errors.As.
type DocMismatchError struct {
	// Saved and Want are the structural fingerprints of the view's original
	// document and of the document it is being loaded into.
	Saved, Want uint64
}

func (e *DocMismatchError) Error() string {
	return fmt.Sprintf("viewjoin: view was saved against a different document (fingerprint %x != %x)", e.Saved, e.Want)
}

// SaveView serializes a materialized view (scheme, pattern, and paged
// content) so it can be reloaded later with LoadViewBytes or LoadViewMmap
// instead of being re-materialized. The document itself is not embedded;
// a small fingerprint is written so loading can reject a mismatched
// document.
func (v *MaterializedView) SaveView(w io.Writer) (int64, error) {
	s := v.st()
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], treeFingerprint(s.tree))
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	n, err := s.store.WriteTo(w)
	return n + 8, err
}

// SaveViewFile writes the view to path atomically: the container is
// serialized to a temporary file in the same directory, synced, and
// renamed over path only once complete. A crash or write error never
// leaves a truncated container at path — readers see either the old file
// or the new one, and a process that has the old file mapped keeps reading
// the old inode.
func (v *MaterializedView) SaveViewFile(path string) (int64, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, err
	}
	n, err := v.SaveView(f)
	if err == nil {
		err = f.Chmod(0o644) // CreateTemp's 0600 is for secrets; a view file is served by others
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return 0, err
	}
	return n, nil
}

// LoadViewBytes reloads a view saved with SaveView from a file image the
// caller already holds, binding it to d. It fails with *DocMismatchError
// when the view was saved against a different document: pointers and
// region labels are only meaningful for the document the view was
// materialized from.
//
// The load is zero-copy: the returned view's paged segments are slices of
// data, adopted without decoding or copying records, so the caller must
// not mutate data afterwards. Loaded views evaluate exactly like freshly
// materialized ones and can be served concurrently (the segments are
// immutable and every reader carries its own cursor state), answer
// ListSizes and the selection API from the store as every view does, and
// cannot be maintained (see Maintain).
func (d *Document) LoadViewBytes(data []byte) (*MaterializedView, error) {
	return d.loadViewImage(data, nil)
}

// LoadViewMmap is LoadViewBytes over a saved view file, held the way the
// platform holds files best: on unix the file is mapped read-only and the
// page-padded segments are sliced straight out of the mapping, so the
// view costs address space and page-cache pages — shared with every other
// process and document mapping the same file — not heap; elsewhere the file
// is read into the heap. Validation is identical to LoadViewBytes (header
// checks, pointer bounds, fingerprint), so a file that is truncated or
// corrupt when it is loaded surfaces as ErrViewTruncated or a validation
// error — never a fault.
//
// The file stays mapped until Release is called on the returned view;
// after Release the view must not be read (the pages are returned to the
// kernel). The file must not be truncated or rewritten in place while it
// is mapped — replace it by rename, as SaveViewFile does. A run or
// Prepare that does touch a page the file no longer backs fails with
// *ViewFaultError instead of killing the process.
func (d *Document) LoadViewMmap(path string) (*MaterializedView, error) {
	file, err := store.OpenMmap(path)
	if err != nil {
		return nil, loadErr(err)
	}
	mv, err := d.loadViewImage(file.Bytes(), file)
	if err != nil {
		file.Close()
		return nil, err
	}
	return mv, nil
}

// loadViewImage validates and adopts a container image; file is the
// mapping that owns it, nil for bytes the caller owns.
func (d *Document) loadViewImage(data []byte, file *store.Mapping) (*MaterializedView, error) {
	snap := d.snap()
	if len(data) < 8 {
		return nil, loadErr(fmt.Errorf("reading fingerprint: %w", io.ErrUnexpectedEOF))
	}
	want := treeFingerprint(snap.tree)
	if got := binary.LittleEndian.Uint64(data[:8]); got != want {
		return nil, &DocMismatchError{Saved: got, Want: want}
	}
	st, err := store.ReadViewStoreBytes(data[8:])
	if err != nil {
		return nil, loadErr(err)
	}
	mv := newView(d, snap, st.View, st)
	mv.loaded, mv.file = true, file
	return mv, nil
}

// Release unmaps a LoadViewMmap view's file; for every other view it is a
// no-op. After it no evaluation may touch the view — callers (like
// vjserve's registry) release only once no in-flight reader can remain.
// Release is idempotent.
func (v *MaterializedView) Release() error { return v.file.Close() }

// FootprintBytes is SizeBytes under the name benchmark/ reads it by.
//
// Deprecated: use SizeBytes.
func (v *MaterializedView) FootprintBytes() int64 { return v.SizeBytes() }

// loadErr wraps a low-level read error for the loaders, folding the two EOF
// flavors into ErrViewTruncated: io.EOF from a header read and
// io.ErrUnexpectedEOF from a partial body both mean the stream ended
// before the content the format promised.
func loadErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("viewjoin: load view: %w: %w", ErrViewTruncated, err)
	}
	return fmt.Errorf("viewjoin: load view: %w", err)
}

// treeFingerprint computes a cheap structural fingerprint of one document
// snapshot (FNV-1a over the region labels of a node sample), used to pair
// saved views with their document. It is per-snapshot: an update changes
// the fingerprint, so a view saved before an Apply does not load against
// the updated document.
func treeFingerprint(t *xmltree.Document) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v int32) {
		for i := 0; i < 4; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	n := t.NumNodes()
	mix(int32(n))
	step := n/64 + 1
	for i := 0; i < n; i += step {
		nd := t.Node(xmltree.NodeID(i))
		mix(nd.Start)
		mix(nd.End)
		mix(nd.Level)
	}
	return h
}
