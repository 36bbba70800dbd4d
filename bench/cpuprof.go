package lcmperf

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuShares buckets the samples of a gzipped pprof CPU profile by the
// package of the function each sample was taken in ("flat" time) and
// returns each bucket's share of all samples, keyed by metric name.  A
// sample with a collector frame anywhere on its stack counts as
// runtime.gc_share; other runtime leaves (gopark, ready, schedule, futex,
// chan, memmove) as runtime.cpu_share.  The shares sum to 1, unless the
// profile holds no sample: then all are 0.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	buckets := make(map[string]int64)
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || s.count == 0 {
			continue
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				stack = append(stack, p.strings[p.funcName[fn]])
			}
		}
		if len(stack) == 0 {
			stack = []string{"?"}
		}
		buckets[bucketOf(stack)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(Layers)+2)
	for _, l := range Layers {
		shares[l+".cpu_share"] = 0
	}
	shares["runtime.cpu_share"], shares["runtime.gc_share"] = 0, 0
	for name, n := range buckets {
		shares[name] = float64(n) / float64(total)
	}
	return shares, nil
}

// bucketOf names the cpu_share metric a stack (function names, leaf
// first) belongs to.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") {
			return "runtime.gc_share"
		}
	}
	pkg := funcPackage(stack[0])
	if rest, ok := strings.CutPrefix(pkg, "lcm/internal/"); ok {
		for _, l := range Layers {
			if rest == l {
				return l + ".cpu_share"
			}
		}
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime.cpu_share"
	}
	return "other.cpu_share"
}

// funcPackage returns the import path of a symbol such as
// "lcm/internal/tempest.(*Node).ReadF32".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profile is the part of a pprof Profile message the bucketing needs.
type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost inlined frame first
	funcName map[uint64]int64    // function id -> string table index
	strings  []string
}

type sample struct {
	locs  []uint64 // leaf first
	count int64
}

var errTruncated = errors.New("truncated protobuf")

// protoFields calls f for every field of a protobuf message: the field
// number, then the varint value (wire types 0, 1, 5) or the bytes (wire
// type 2).
func protoFields(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n == 0 {
				return errTruncated
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// repeatedVarints reads a repeated integer field that may arrive packed
// (data) or one value at a time (v).
func repeatedVarints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n == 0 {
			return nil, errTruncated
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

// parseProfile decodes perftools.profiles.Profile: sample = 2 (location_id
// = 1, value = 2), location = 4 (id = 1, line = 4 (function_id = 1)),
// function = 5 (id = 1, name = 2), string_table = 6.
func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: make(map[uint64][]uint64), funcName: make(map[uint64]int64)}
	err := protoFields(raw, func(num int, _ uint64, data []byte) error {
		switch num {
		case 2:
			var s sample
			var values []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) (err error) {
				switch num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, v, data)
				case 2:
					values, err = repeatedVarints(values, v, data)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0]) // Go writes [samples, cpu ns]
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var funcs []uint64
			err := protoFields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return protoFields(data, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.locFuncs[id] = funcs
		case 5:
			var id uint64
			var name int64
			err := protoFields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	return p, nil
}
