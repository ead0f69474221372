package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// genArgs generates the small fleet every golden below replays: three
// nodes, big-first placement, seeded faults (two crashes, one recovery),
// four admission decisions.
var genArgs = []string{"-gen", "-seed", "2", "-nodes", "3", "-apps", "4", "-duration", "4000", "-faults"}

// runCLI runs the command in-process and returns its exit code and output.
func runCLI(t *testing.T, extra ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(append(append([]string(nil), genArgs...), extra...), &out, &errb)
	return code, out.String(), errb.String()
}

// checkGolden compares got with testdata/name. The goldens are the
// command's own output; regenerate one with
//
//	go run ./cmd/hars-scenario -gen -seed 2 -nodes 3 -apps 4 -duration 4000 -faults <flags> > testdata/<name>
//
// (2> for the text writers), and only after an intentional change.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestSummaryJSONGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-summary", "json")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "summary.json.golden", stdout)
}

// TestSummaryTextGolden pins the text summary and ties it to the trace: the
// digest the summary prints is the FNV-64a of the bytes written to stdout.
func TestSummaryTextGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "summary.txt.golden", stderr)
	h := fnv.New64a()
	h.Write([]byte(stdout))
	if want := fmt.Sprintf("trace digest %016x", h.Sum64()); !strings.Contains(stderr, want) {
		t.Errorf("summary does not report the stdout trace's digest (%s)", want)
	}
}

func TestCounterfactualTextGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-counterfactual", "0")
	if code != 0 || stdout != "" {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
	checkGolden(t, "counterfactual.txt.golden", stderr)
}

func TestCounterfactualJSONGolden(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-counterfactual", "0", "-summary", "json")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	checkGolden(t, "counterfactual.json.golden", stdout)
}

// TestCounterfactualJSONNoAlternatives pins the JSON shape for a decision
// with no alternative candidate (decision 1 of the generated fleet, a
// pinned admission): an empty list, never null.
func TestCounterfactualJSONNoAlternatives(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-counterfactual", "1", "-summary", "json")
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	var out struct {
		Alternatives *[]json.RawMessage `json:"alternatives"`
	}
	if err := json.Unmarshal([]byte(stdout), &out); err != nil {
		t.Fatal(err)
	}
	if out.Alternatives == nil || len(*out.Alternatives) != 0 {
		t.Fatalf("alternatives is not an empty list:\n%s", stdout)
	}
}

// TestUsageErrors pins exit status 2 for command lines the command refuses
// before running anything, and 1 for a scenario that fails to load.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
		msg  string
	}{
		{"bad summary", []string{"-gen", "-summary", "xml"}, 2, `unknown -summary format "xml"`},
		{"no input", nil, 2, "need -in <scenario.json> or -gen"},
		{"removed workers flag", []string{"-gen", "-workers", "2"}, 2, "flag provided but not defined: -workers"},
		{"missing file", []string{"-in", filepath.Join(t.TempDir(), "absent.json")}, 1, "absent.json"},
	} {
		var out, errb bytes.Buffer
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.code, errb.String())
		}
		if !strings.Contains(errb.String(), tc.msg) {
			t.Errorf("%s: stderr %q lacks %q", tc.name, errb.String(), tc.msg)
		}
		if out.Len() != 0 {
			t.Errorf("%s: wrote %d bytes to stdout", tc.name, out.Len())
		}
	}
}
