package main

import (
	"strings"
	"testing"
)

// TestFingerprintDiff checks that a file compares equal to itself and that
// every differing field, including one an old file lacks, is named.
func TestFingerprintDiff(t *testing.T) {
	f := takeFingerprint()
	if f.CPU == "" || f.GOMAXPROCS < 1 || f.GoVersion == "" {
		t.Fatalf("incomplete fingerprint %+v", f)
	}
	if d := fingerprintDiff(f, f); len(d) != 0 {
		t.Fatalf("a fingerprint differs from itself: %v", d)
	}
	old := f
	old.CPU, old.GOMAXPROCS, old.GoVersion = "", 0, "go1.22.0"
	d := strings.Join(fingerprintDiff(f, old), "; ")
	for _, field := range []string{"cpu", "gomaxprocs", "go "} {
		if !strings.Contains(d, field) {
			t.Errorf("diff %q does not name %s", d, field)
		}
	}
}
