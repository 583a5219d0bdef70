package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the avfsd golden files")

// TestSessionGolden pins the bytes of a scripted session: the canonical
// script, then status, stats, log 50 and sysfs on stdout, and the JSONL
// decision trace beside it. Any change in how a session is wired (hook
// order, registered metrics, daemon configuration) that moves a byte of
// what an operator sees fails here.
func TestSessionGolden(t *testing.T) {
	var out, trace bytes.Buffer
	s := mustSession(t, "optimal", &out)
	s.streamJSONL(&trace)
	for _, line := range append(append([]string(nil), canonicalScript...), "status", "stats", "log 50", "sysfs") {
		if s.exec(line) {
			t.Fatalf("command %q ended the session", line)
		}
	}
	s.close()
	checkGolden(t, "session.out", out.Bytes())
	checkGolden(t, "session.jsonl", trace.Bytes())
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden file (%d bytes, want %d); first difference at byte %d",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
