//go:build !unix

package store

import (
	"io"
	"os"
)

// mmapFile on platforms without mmap reads the file into the heap: the
// same bytes behind the same OpenMmap/Close, at the cost of heap.
func mmapFile(f *os.File, size int) ([]byte, error) {
	data := make([]byte, size)
	_, err := io.ReadFull(f, data)
	return data, err
}

func munmapFile(data []byte) error { return nil }
