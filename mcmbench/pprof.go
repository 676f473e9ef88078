package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes (gzipped
// profile.proto) just far enough to attribute each sample's CPU time to a
// layer. Only the standard library is available, so it decodes the few
// protobuf fields it needs by hand.

// sample is one profile sample: its stack, leaf first, as function names
// (inlined frames expanded), and its CPU time.
type sample struct {
	stack []string
	ns    int64
}

// parseProfile decodes a gzipped CPU profile.
func parseProfile(data []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs      []string
		types     [][]byte // sample_type messages
		rawSample [][]byte
		funcName  = map[uint64]int64{} // function id -> string index
		locFuncs  = map[uint64][]uint64{}
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1:
			types = append(types, b)
		case 2:
			rawSample = append(rawSample, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	cpu := -1
	for i, t := range types {
		var typ int64
		if err := fields(t, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if str(typ) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(rawSample))
	for _, b := range rawSample {
		var locs []uint64
		var vals []int64
		err := fields(b, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				if b == nil {
					locs = append(locs, v)
					return nil
				}
				return packed(b, func(v uint64) { locs = append(locs, v) })
			case 2:
				if b == nil {
					vals = append(vals, int64(v))
					return nil
				}
				return packed(b, func(v uint64) { vals = append(vals, int64(v)) })
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpu >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := sample{ns: vals[cpu]}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// fields calls fn for each field of one protobuf message: v for varint
// fields, b for length-delimited ones (b is nil for varints).
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
	}
	return nil
}

func packed(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// gcFrames mark a sample as garbage-collector work wherever they appear in
// its stack (mark workers, assists, sweeping, write barriers).
var gcFrames = []string{
	"runtime.gc", "runtime.markroot", "runtime.scanobject", "runtime.scanblock",
	"runtime.scanstack", "runtime.greyobject", "runtime.bgsweep", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*gcWork)", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.(*mspan).sweep", "runtime.findObject", "runtime.bgscavenge",
}

// layerPackages are the simulator packages that get a bucket of their own.
var layerPackages = []string{
	"cache", "noc", "dram", "vm", "cta", "sm", "workload", "core", "runner",
	"analytic", "config",
}

// bucketOf attributes one sample: GC work anywhere in the stack is "gc";
// otherwise allocation anywhere is "malloc"; otherwise the innermost frame
// outside the runtime names the bucket, with the engine's event queue and
// its resources ((*Resource) methods) split apart. Anything else is
// "other".
func bucketOf(stack []string) string {
	for _, f := range stack {
		for _, p := range gcFrames {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.mallocgc") {
			return "malloc"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.") || strings.HasPrefix(f, "runtime/internal") ||
			strings.HasPrefix(f, "internal/runtime") {
			continue
		}
		rest, ok := strings.CutPrefix(f, "mcmgpu/internal/")
		if !ok {
			return "other"
		}
		pkg, _, _ := strings.Cut(rest, ".")
		if pkg == "engine" {
			if strings.Contains(rest, "(*Resource)") {
				return "engine_resource"
			}
			return "engine_queue"
		}
		for _, l := range layerPackages {
			if pkg == l {
				return l
			}
		}
		return "other"
	}
	return "other"
}

// bucketShares returns each bucket's share of the samples' CPU time in
// percent. Every bucket appears, so the shares always sum to 100 when
// anything was sampled.
func bucketShares(samples []sample) map[string]float64 {
	out := map[string]float64{"engine_queue": 0, "engine_resource": 0, "gc": 0, "malloc": 0, "other": 0}
	for _, l := range layerPackages {
		out[l] = 0
	}
	var total float64
	for _, s := range samples {
		out[bucketOf(s.stack)] += float64(s.ns)
		total += float64(s.ns)
	}
	if total > 0 {
		for k := range out {
			out[k] = out[k] / total * 100
		}
	}
	return out
}
