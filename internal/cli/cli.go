// Package cli holds what the commands share: the document their flags
// name, the view files a -load glob names, and the one-line JSON report of
// a failure.
package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"viewjoin"
)

// LoadDocument returns the document a command runs over: a generated
// XMark document of scale xmark when it is positive, else a generated Nasa
// document of nasa datasets when that is, else the XML file at path.
func LoadDocument(xmark float64, nasa int, path string) (*viewjoin.Document, error) {
	switch {
	case xmark > 0:
		return viewjoin.GenerateXMark(xmark), nil
	case nasa > 0:
		return viewjoin.GenerateNasa(nasa), nil
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return viewjoin.ParseDocument(f)
	default:
		return nil, fmt.Errorf("provide an XML document, -xmark, or -nasa")
	}
}

// ViewFiles returns the files glob matches, sorted; matching none is an
// error.
func ViewFiles(glob string) ([]string, error) {
	paths, err := filepath.Glob(glob)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no view files match %q", glob)
	}
	sort.Strings(paths)
	return paths, nil
}

// Fail reports one failure as a single JSON line on stderr and returns
// code, the exit status, so scripts can match on both the status and the
// stage.
func Fail(stderr io.Writer, stage string, err error, code int) int {
	line, _ := json.Marshal(struct {
		Stage string `json:"stage"`
		Error string `json:"error"`
	}{Stage: stage, Error: err.Error()})
	fmt.Fprintf(stderr, "%s\n", line)
	return code
}
