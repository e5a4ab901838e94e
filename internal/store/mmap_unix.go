//go:build unix

package store

import (
	"os"
	"syscall"
)

// mmapFile maps size bytes of f read-only and shared: the mapping is a
// window onto the page cache, so N processes (or N documents in
// one process) serving the same container file share one set of physical
// pages. The descriptor may be closed after mapping; the mapping
// persists until munmap.
func mmapFile(f *os.File, size int) ([]byte, error) {
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// munmapFile releases a mapping created by mmapFile.
func munmapFile(data []byte) error {
	return syscall.Munmap(data)
}
