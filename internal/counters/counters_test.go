package counters

import (
	"slices"
	"testing"
)

func TestAdd(t *testing.T) {
	a := Counters{1, 2, 3, 4, 5, 6, 7, 8}
	a.Add(Counters{10, 20, 30, 40, 50, 60, 70, 80})
	if want := (Counters{11, 22, 33, 44, 55, 66, 77, 88}); a != want {
		t.Fatalf("Add = %+v, want %+v", a, want)
	}
}

// TestIODefaultAndUncached checks that NewIO ignores its second argument
// (benchmark/ passes 0 and -1): every touch is charged as a read, a
// repeated one too.
func TestIODefaultAndUncached(t *testing.T) {
	for _, arg := range []int{0, -1, 64} {
		var c Counters
		io := NewIO(&c, arg)
		for i := 0; i < 3; i++ {
			io.Touch(1, 0)
		}
		if c.PagesRead != 3 {
			t.Errorf("NewIO(c, %d): three touches of one page read %d pages, want 3", arg, c.PagesRead)
		}
	}
}

// TestIONegativePoolEveryTouchMisses checks that a negative capacity, the
// "no pool" argument, charges each of five touches of one page as a read
// and hands each to the hook.
func TestIONegativePoolEveryTouchMisses(t *testing.T) {
	var c Counters
	io := NewIO(&c, -1)
	seen := 0
	io.Page = func(file uintptr, page int32) {
		if file != 7 || page != 0 {
			t.Errorf("hook saw file %d page %d, want 7 and 0", file, page)
		}
		seen++
	}
	for i := 0; i < 5; i++ {
		io.Touch(7, 0)
	}
	if c.PagesRead != 5 || seen != 5 {
		t.Fatalf("PagesRead = %d, hook saw %d touches, want 5 and 5", c.PagesRead, seen)
	}
}

type touch struct {
	file uintptr
	page int32
}

// TestIODistinctFiles checks that page 0 of two files is two reads the Page
// hook tells apart.
func TestIODistinctFiles(t *testing.T) {
	var c Counters
	io := NewIO(&c, 0)
	var got []touch
	io.Page = func(file uintptr, page int32) { got = append(got, touch{file, page}) }
	io.Touch(1, 0)
	io.Touch(2, 0)
	if want := []touch{{1, 0}, {2, 0}}; c.PagesRead != 2 || !slices.Equal(got, want) {
		t.Fatalf("PagesRead = %d, hook saw %v; want 2 and %v", c.PagesRead, got, want)
	}
}

// TestIOPageHookSequence checks that the hook observes every touch in
// order, each charged as one read.
func TestIOPageHookSequence(t *testing.T) {
	var c Counters
	io := NewIO(&c, 0)
	var got []touch
	io.Page = func(file uintptr, page int32) { got = append(got, touch{file, page}) }
	want := []touch{{1, 0}, {1, 0}, {1, 1}, {1, 0}, {3, 7}}
	for _, tc := range want {
		io.Touch(tc.file, tc.page)
	}
	if c.PagesRead != int64(len(want)) || !slices.Equal(got, want) {
		t.Fatalf("PagesRead = %d, hook saw %v; want %d and %v", c.PagesRead, got, len(want), want)
	}
}

// TestIOReset checks that Reset rebinds the counters and drops the hook.
func TestIOReset(t *testing.T) {
	var c, c2 Counters
	io := NewIO(&c, 0)
	io.Page = func(uintptr, int32) { t.Error("hook survived Reset") }
	io.Reset(&c2)
	io.Touch(1, 0)
	if c.PagesRead != 0 || c2.PagesRead != 1 {
		t.Fatalf("after Reset: old counters read %d pages, new %d; want 0 and 1", c.PagesRead, c2.PagesRead)
	}
}

func TestIOWrite(t *testing.T) {
	var c Counters
	io := NewIO(&c, 0)
	io.Write(5)
	io.Write(3)
	if c.PagesWritten != 8 {
		t.Fatalf("PagesWritten = %d, want 8", c.PagesWritten)
	}
}
