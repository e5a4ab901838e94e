package store

import (
	"fmt"
	"os"
)

// Mapping holds a container file's bytes read-only for as long as a store
// sliced from them (ReadViewStoreBytes) may be read. The platform decides
// how: on unix the file is mapped shared (mmap_unix.go) and costs address
// space and page-cache pages, not heap; elsewhere it is read into the
// heap (mmap_other.go). Evaluation sees the same zero-copy segments
// either way. The descriptor is not retained.
//
// A file that is already short or corrupt when it is opened surfaces as a
// load error from the usual header validation — the loader bounds every
// read by the image's length. A file truncated *afterwards*, under its
// live mapping, faults on the next page touched; the public package turns
// that fault into a ViewFaultError.
type Mapping struct {
	data []byte
}

// OpenMmap opens the container file at path. An empty file yields an open
// Mapping with no bytes — the loader then reports truncation.
func OpenMmap(path string) (*Mapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: open mmap: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("store: open mmap: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		return &Mapping{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("store: open mmap: %s: file too large to map", path)
	}
	data, err := mmapFile(f, int(size))
	if err != nil {
		return nil, fmt.Errorf("store: mmap %s: %w", path, err)
	}
	return &Mapping{data: data}, nil
}

// Bytes returns the image (nil after Close, or for empty files).
func (m *Mapping) Bytes() []byte { return m.data }

// Close gives the bytes back — to the kernel, for a real mapping, which
// invalidates every store sliced from them: the owner must ensure no
// reader remains. It is idempotent, and a no-op on a nil Mapping.
func (m *Mapping) Close() error {
	if m == nil || m.data == nil {
		return nil
	}
	data := m.data
	m.data = nil
	if err := munmapFile(data); err != nil {
		return fmt.Errorf("store: munmap: %w", err)
	}
	return nil
}
