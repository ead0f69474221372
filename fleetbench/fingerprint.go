package main

import (
	"bufio"
	"debug/buildinfo"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint identifies the machine and build a result set was taken
// on. Numbers from different fingerprints are not comparable, and the
// compare modes refuse them.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GOAMD64    string `json:"goamd64,omitempty"`
	GoVersion  string `json:"go_version"`
}

// takeFingerprint describes this machine and the hars-scenario binary at
// bin: the build settings come from the binary itself, so a binary built
// with another toolchain or GOAMD64 level shows.
func takeFingerprint(bin string) (fingerprint, error) {
	fp := fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	info, err := buildinfo.ReadFile(bin)
	if err != nil {
		return fp, fmt.Errorf("fingerprint: %w", err)
	}
	fp.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		switch s.Key {
		case "GOARCH":
			fp.GOARCH = s.Value
		case "GOAMD64":
			fp.GOAMD64 = s.Value
		}
	}
	return fp, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo, or reports the
// architecture where that file does not exist.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown " + runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown " + runtime.GOARCH
}

// diff lists the fields in which two fingerprints differ.
func (fp fingerprint) diff(other fingerprint) []string {
	var out []string
	add := func(name string, a, b any) {
		if a != b {
			out = append(out, fmt.Sprintf("%s %v vs %v", name, a, b))
		}
	}
	add("cpu", fp.CPU, other.CPU)
	add("nproc", fp.NProc, other.NProc)
	add("gomaxprocs", fp.GOMAXPROCS, other.GOMAXPROCS)
	add("goarch", fp.GOARCH, other.GOARCH)
	add("goamd64", fp.GOAMD64, other.GOAMD64)
	add("go", fp.GoVersion, other.GoVersion)
	return out
}

func (fp fingerprint) String() string {
	s := fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d goarch=%s", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GOARCH)
	if fp.GOAMD64 != "" {
		s += " goamd64=" + fp.GOAMD64
	}
	return s + " go=" + fp.GoVersion
}
