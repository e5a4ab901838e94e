package main

import (
	"flag"
	"io"
	"testing"

	"viewjoin/internal/server"
)

// TestFlagDefaultsAreDeployed: the serving flags, none given, read back as
// server.DeployedConfig, the configuration the server's tests measure.
func TestFlagDefaultsAreDeployed(t *testing.T) {
	fs := flag.NewFlagSet("vjserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	config := serveFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got, want := config(), server.DeployedConfig(); got != want {
		t.Errorf("flag defaults give %+v, want server.DeployedConfig() %+v", got, want)
	}
}
