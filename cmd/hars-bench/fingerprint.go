package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// takeFingerprint describes this machine and binary: the fingerprint fields
// of a trajectory file. Numbers taken under different fingerprints are not
// comparable.
func takeFingerprint() File {
	f := File{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "GOAMD64" {
				f.GOAMD64 = s.Value
			}
		}
	}
	return f
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

// fingerprintDiff lists the fingerprint fields in which two trajectory files
// differ. A file written before fingerprints were recorded differs in every
// field it lacks.
func fingerprintDiff(a, b File) []string {
	var out []string
	add := func(name string, x, y any) {
		if x != y {
			out = append(out, fmt.Sprintf("%s %q vs %q", name, fmt.Sprint(x), fmt.Sprint(y)))
		}
	}
	add("cpu", a.CPU, b.CPU)
	add("goarch", a.GOARCH, b.GOARCH)
	add("goamd64", a.GOAMD64, b.GOAMD64)
	add("num_cpu", a.NumCPU, b.NumCPU)
	add("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	add("go", a.GoVersion, b.GoVersion)
	return out
}
