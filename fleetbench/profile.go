package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is read with a minimal decoder of the pprof protobuf
// format (github.com/google/pprof/proto/profile.proto), enough to charge
// each sample's leaf function to its package. Field numbers:
//
//	Profile:  2 sample, 4 location, 5 function, 6 string_table
//	Sample:   1 location_id (packed), 2 value (packed)
//	Location: 1 id, 4 line
//	Line:     1 function_id
//	Function: 1 id, 2 name (string index)

// pbField is one decoded protobuf field: a varint or a byte slice.
type pbField struct {
	num    int
	varint uint64
	bytes  []byte
}

func pbFields(b []byte) ([]pbField, error) {
	var out []pbField
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("profile: bad field key")
		}
		b = b[n:]
		f := pbField{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			f.varint, n = binary.Uvarint(b)
			if n <= 0 {
				return nil, fmt.Errorf("profile: bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return nil, fmt.Errorf("profile: short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return nil, fmt.Errorf("profile: bad length")
			}
			f.bytes = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return nil, fmt.Errorf("profile: short fixed32")
			}
			b = b[4:]
		default:
			return nil, fmt.Errorf("profile: wire type %d", key&7)
		}
		out = append(out, f)
	}
	return out, nil
}

// pbInts decodes a repeated integer field, packed or not.
func pbInts(f pbField) []uint64 {
	if f.bytes == nil {
		return []uint64{f.varint}
	}
	var out []uint64
	for b := f.bytes; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		out = append(out, v)
		b = b[n:]
	}
	return out
}

// flatByFunction decodes a gzipped CPU profile and returns the CPU
// nanoseconds whose leaf frame is each function.
func flatByFunction(gz []byte) (map[string]int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	top, err := pbFields(raw)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]uint64{} // function id → string index
	leaf := map[uint64]uint64{}     // location id → innermost function id
	type sample struct {
		loc   uint64
		value int64
	}
	var samples []sample
	for _, f := range top {
		switch f.num {
		case 6:
			strs = append(strs, string(f.bytes))
		case 5:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.varint
				case 2:
					name = g.varint
				}
			}
			funcName[id] = name
		case 4:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var id uint64
			fn, seen := uint64(0), false
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.varint
				case 4:
					if seen {
						continue // inlined callers follow the leaf
					}
					lines, err := pbFields(g.bytes)
					if err != nil {
						return nil, err
					}
					for _, l := range lines {
						if l.num == 1 {
							fn, seen = l.varint, true
						}
					}
				}
			}
			leaf[id] = fn
		case 2:
			sub, err := pbFields(f.bytes)
			if err != nil {
				return nil, err
			}
			var s sample
			var locs, values []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					locs = append(locs, pbInts(g)...)
				case 2:
					values = append(values, pbInts(g)...)
				}
			}
			if len(locs) == 0 || len(values) < 2 {
				continue
			}
			// Sample values are [count, cpu nanoseconds].
			s.loc, s.value = locs[0], int64(values[1])
			samples = append(samples, s)
		}
	}
	out := map[string]int64{}
	for _, s := range samples {
		name := "?"
		if si, ok := funcName[leaf[s.loc]]; ok && int(si) < len(strs) {
			name = strs[si]
		}
		out[name] += s.value
	}
	return out, nil
}

// layerOf names the metric group a function's CPU time is charged to:
// the repository package's last path element, "runtime" for the Go
// runtime, "stdlib" for the rest of the standard library, and "other"
// for anything else.
func layerOf(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	switch {
	case strings.HasPrefix(pkg, "repro/internal/"):
		name := strings.TrimPrefix(pkg, "repro/internal/")
		if i := strings.Index(name, "/"); i >= 0 {
			name = name[:i]
		}
		return name
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") ||
		!strings.Contains(fn, "."):
		// Assembly stubs such as gcWriteBarrier carry no package.
		return "runtime"
	case pkg == "main" || strings.HasPrefix(pkg, "repro"):
		return "other"
	case !strings.Contains(pkg, "."): // standard-library paths have no dot
		return "stdlib"
	}
	return "other"
}
