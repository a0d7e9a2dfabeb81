package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// checkGolden compares got against testdata/name, or rewrites the file
// under -update. A mismatch names the first line that differs.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to record it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			t.Fatalf("%s: first difference at line %d:\n got: %q\nwant: %q", path, i+1, gl, wl)
		}
	}
}

// TestBeaconGolden pins the whole §6 beacon report: Table 2 shares,
// Figure 3 bars, the Figure 4/5 path series, Figure 6 and its
// longitudinal ratio series.
func TestBeaconGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runBeacon(&out, []string{"-longitudinal"}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "beacon.golden", out.Bytes())
}

// TestSimBeaconGolden pins the protocol-level beacon report.
func TestSimBeaconGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runSimBeacon(&out, nil); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "simbeacon.golden", out.Bytes())
}
