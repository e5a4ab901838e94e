//go:build unix

package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"syscall"
	"testing"
	"time"
)

const (
	testViews = "//site//item//name; //description//keyword"
	testQuery = "//site//item[//description//keyword]/name"
)

// TestRunServesAndDrains runs the command as deployed — every flag at its
// default but the address and the document — on a port the kernel picks:
// ready names the bound address, a /query answers 200 and shows in
// /debug/slowlog's recent ring (size 8), and SIGINT, through the
// handler run installs, drains the server and exits 0.
func TestRunServesAndDrains(t *testing.T) {
	ready := make(chan string)
	done := make(chan int, 1)
	var stdout, stderr bytes.Buffer
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-xmark", "0.05", "-views", testViews}, &stdout, &stderr, ready)
	}()
	var addr string
	select {
	case addr = <-ready:
	case code := <-done:
		t.Fatalf("run exited %d before serving: %s", code, stderr.String())
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("ready sent %q, not the bound address", addr)
	}

	body := `{"document":"doc","query":"` + testQuery + `","limit":3}`
	resp, err := http.Post("http://"+addr+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var page struct {
		MatchCount int `json:"match_count"`
	}
	err = json.NewDecoder(resp.Body).Decode(&page)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || page.MatchCount != 3 {
		t.Fatalf("/query: status %d, %d matches (%v); want 200 and a 3-row page", resp.StatusCode, page.MatchCount, err)
	}

	resp, err = http.Get("http://" + addr + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Size   int `json:"size"`
		Recent []struct {
			Query  string `json:"query"`
			Status int    `json:"status"`
		} `json:"recent"`
	}
	err = json.NewDecoder(resp.Body).Decode(&log)
	resp.Body.Close()
	if err != nil || log.Size != 8 || len(log.Recent) != 1 || log.Recent[0].Query != testQuery || log.Recent[0].Status != http.StatusOK {
		t.Fatalf("/debug/slowlog: %+v (%v); want size 8 holding the one 200 /query", log, err)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("run exited %d after SIGINT: %s", code, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after SIGINT")
	}
	if out := stderr.String(); !strings.Contains(out, "on "+addr) || !strings.Contains(out, "draining") {
		t.Errorf("stderr %q: want the bound address and the drain", out)
	}
}

// TestRunListenError: an address already taken fails at stage "listen"
// before the command says it is serving.
func TestRunListenError(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var stdout, stderr bytes.Buffer
	code := run([]string{"-addr", ln.Addr().String(), "-xmark", "0.01", "-views", testViews}, &stdout, &stderr, nil)
	if out := stderr.String(); code != exitOther || !strings.Contains(out, `"stage":"listen"`) || strings.Contains(out, "serving") {
		t.Errorf("exit %d, stderr %q; want %d at stage listen, before serving", code, out, exitOther)
	}
}

// TestRemovedFlagsAreUnknown: the per-request partition cap and the slowlog
// settings are no flags any more; naming one fails before anything loads.
func TestRemovedFlagsAreUnknown(t *testing.T) {
	for _, name := range []string{"-max-parallel", "-slowlog-size", "-slowlog-ms"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{name, "2", "-xmark", "0.01"}, &stdout, &stderr, nil)
		if out := stderr.String(); code != exitOther || !strings.Contains(out, "flag provided but not defined: "+name) {
			t.Errorf("%s 2: exit %d, stderr %q; want %d and the unknown-flag error", name, code, out, exitOther)
		}
	}
}
