package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The traced run also samples the CPU. The spans show what each layer
// call costs but only where the benchmark can put them; the profile
// shows which layers a workload reaches at all, wherever they run, so a
// prediction that a workload never reaches a layer is measured rather
// than true by construction.

// profiledLayers maps each profile metric to the functions that belong
// to its layer, by the fully qualified name the profile records.
var profiledLayers = []struct {
	metric string
	match  func(fn string) bool
}{
	{"profile.controlplane_share", inPackage("repro/internal/controlplane")},
	{"profile.core_share", inPackage("repro/internal/core")},
	{"profile.machine_step_share", func(fn string) bool {
		const step = "repro/internal/machine.(*Machine).Step"
		return fn == step || strings.HasPrefix(fn, step+".")
	}},
}

func inPackage(path string) func(string) bool {
	return func(fn string) bool { return strings.HasPrefix(fn, path+".") }
}

// profiled runs fn under the CPU profiler and returns, for each
// profiled layer, the share of CPU samples whose stack holds one of the
// layer's functions, and the number of samples.
func profiled(fn func() error) (map[string]float64, int64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	return profileShares(buf.Bytes())
}

// profileShares decodes a gzipped pprof profile — only the fields it
// needs: samples, locations, functions and the string table — and
// weighs each sample by its first value (the sample count).
func profileShares(data []byte) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id → name's string index
		locs    = map[uint64][]uint64{} // location id → function ids
	)
	err = fields(raw, func(num int, v uint64, sub []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var values []uint64
			err := fields(sub, func(num int, v uint64, sub []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = varints(s.locs, v, sub)
				case 2:
					values, err = varints(values, v, sub)
				}
				return err
			})
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(sub, func(num int, v uint64, sub []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(sub, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(sub, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	var total int64
	hits := make([]int64, len(profiledLayers))
	for _, s := range samples {
		total += s.count
		for i, l := range profiledLayers {
			if stackMatches(s.locs, locs, funcs, strs, l.match) {
				hits[i] += s.count
			}
		}
	}
	shares := map[string]float64{}
	for i, l := range profiledLayers {
		shares[l.metric] = ratio(float64(hits[i]), float64(total))
	}
	return shares, total, nil
}

func stackMatches(stack []uint64, locs map[uint64][]uint64, funcs map[uint64]uint64, strs []string, match func(string) bool) bool {
	for _, loc := range stack {
		for _, fn := range locs[loc] {
			if name, ok := funcs[fn]; ok && name < uint64(len(strs)) && match(strs[name]) {
				return true
			}
		}
	}
	return false
}

var errBadProfile = errors.New("malformed profile")

// fields walks the top-level fields of one protocol-buffer message,
// calling fn with each field's number and either its varint value or
// its length-delimited bytes. Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProfile
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errBadProfile
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errBadProfile
			}
			sub := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, sub); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return errBadProfile
			}
			b = b[w:]
		default:
			return fmt.Errorf("%w: wire type %d", errBadProfile, key&7)
		}
	}
	return nil
}

// varints appends a repeated integer field's values: one varint v, or
// the packed varints in sub.
func varints(dst []uint64, v uint64, sub []byte) ([]uint64, error) {
	if sub == nil {
		return append(dst, v), nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return dst, errBadProfile
		}
		dst = append(dst, x)
		sub = sub[n:]
	}
	return dst, nil
}
