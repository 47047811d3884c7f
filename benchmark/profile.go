package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// profileSample is one CPU-profile sample: its call stack, innermost
// frame first (inlined frames included), and its sample count.
type profileSample struct {
	frames []string
	count  int64
}

// readProfile decodes a gzipped pprof CPU profile as runtime/pprof writes
// it. Only the fields the layer attribution needs are read: samples,
// locations with their lines, functions and the string table.
func readProfile(path string) ([]profileSample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	samples, err := parseProfile(data)
	if err != nil {
		return nil, fmt.Errorf("profile %s: %w", path, err)
	}
	return samples, nil
}

// Field numbers of the perftools.profiles.Profile message and the
// messages nested in it.
const (
	profSample      = 2
	profLocation    = 4
	profFunction    = 5
	profStringTable = 6

	sampleLocationID = 1
	sampleValue      = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func parseProfile(data []byte) ([]profileSample, error) {
	type rawSample struct {
		locs, values []uint64
	}
	var (
		strs    []string
		raw     []rawSample
		funcs   = map[uint64]uint64{}   // function id → name string index
		locFrms = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocationID:
					return appendVarints(&s.locs, v, b)
				case sampleValue:
					return appendVarints(&s.values, v, b)
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFrms[id] = fns
			return err
		case profFunction:
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case profStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profileSample, 0, len(raw))
	for _, s := range raw {
		ps := profileSample{}
		if len(s.values) > 0 {
			ps.count = int64(s.values[0]) // samples/count, the first sample type
		}
		for _, loc := range s.locs {
			for _, fn := range locFrms[loc] {
				if idx := funcs[fn]; idx < uint64(len(strs)) {
					ps.frames = append(ps.frames, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func eachField(data []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (b) or
// not (v).
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// substrates are the shared data-structure packages every layer calls
// into; their time is charged to the calling layer.
var substrates = map[string]bool{"graphalg": true, "chip": true, "grid": true, "assay": true}

// layerCPU is a CPU profile attributed to layers: samples per layer,
// samples whose innermost program frame is a substrate, and the total.
type layerCPU struct {
	Samples   map[string]int64 `json:"samples"`
	Substrate int64            `json:"substrate"`
	Total     int64            `json:"total"`
}

// internalPackage returns the repro/internal package a function belongs
// to.
func internalPackage(fn string) (string, bool) {
	const prefix = "repro/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return "", false
	}
	rest := fn[len(prefix):]
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// attribute charges each sample to the innermost repro/internal frame
// that is not a substrate or the flowstage pipeline. A sample with no
// repro/internal frame (GC workers, the scheduler, the benchmark itself)
// goes to "gc"; one whose program frames are all substrate or flowstage
// goes to "other".
func (l *layerCPU) attribute(samples []profileSample) {
	if l.Samples == nil {
		l.Samples = map[string]int64{}
	}
	for _, s := range samples {
		layer, innermost := "", ""
		for _, fn := range s.frames {
			pkg, ok := internalPackage(fn)
			if !ok {
				continue
			}
			if innermost == "" {
				innermost = pkg
			}
			if !substrates[pkg] && pkg != "flowstage" {
				layer = pkg
				break
			}
		}
		switch {
		case innermost == "":
			layer = "gc"
		case layer == "":
			layer = "other"
		}
		l.Samples[layer] += s.count
		if substrates[innermost] {
			l.Substrate += s.count
		}
		l.Total += s.count
	}
}
