package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"occamy/internal/obs"
)

// tracer keeps the traced run's spans in memory; write exports them at the
// end. A nil tracer records nothing, which is how untraced phases run.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one call into a layer: ids start at 1, and parent 0 is a root. The
// benchmark makes one call at a time, so spans nest and need no lock.
type span struct {
	name, job  string
	parent     int
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, job string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{name: name, job: job, parent: parent, start: time.Since(t.t0)})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].end = time.Since(t.t0)
	}
}

// total sums the count and duration of the spans with the given name.
func (t *tracer) total(name string) (n int, d time.Duration) {
	for _, s := range t.spans {
		if s.name == name {
			n++
			d += s.end - s.start
		}
	}
	return n, d
}

// meanMS is the mean duration in ms of the spans with the given name, 0 when
// there are none.
func (t *tracer) meanMS(name string) float64 {
	n, d := t.total(name)
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e6 / float64(n)
}

// write exports the spans as Chrome trace-event JSON, one complete slice per
// span with timestamps in host microseconds, through the repository's
// Perfetto writer, and validates the file with the check occamy-trace
// -check-perfetto runs.
func (t *tracer) write(path, process string) error {
	p := obs.NewPerfetto(len(t.spans) + 2)
	p.EmitProcessName(0, process)
	p.EmitThreadName(0, 0, "client")
	for i, s := range t.spans {
		p.EmitComplete(0, 0, s.name, uint64(s.start.Microseconds()), uint64((s.end - s.start).Microseconds()),
			map[string]any{"span": i + 1, "parent": s.parent, "job": s.job})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := p.Write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f, err = os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return obs.ValidatePerfetto(f)
}

// The CPU profile is folded two ways: by the module of each sample's leaf
// frame (self time per layer), and inclusively by a few exported entry
// points that the benchmark cannot call on their own.

// entryPoints maps fully qualified function names to the metric their
// inclusive time feeds.
var entryPoints = map[string]string{
	"occamy/internal/arch.(*System).RestoreCheckpoint": "arch.restore_s",
	"occamy/internal/arch.(*SystemState).Verify":       "arch.digest_s",
	"occamy/internal/arch.(*System).CheckResults":      "arch.check_s",
}

// sample is one CPU-profile sample: its stack, leaf first, with inlined
// frames expanded, and the CPU time it stands for.
type sample struct {
	stack []string
	nanos int64
}

// profileFold is a folded profile: seconds by layer (leaf frame), seconds by
// entry point (inclusive), and the total.
type profileFold struct {
	self  map[string]float64
	incl  map[string]float64
	total float64
}

// layerOf maps a function to the layer its self time is charged to:
// occamy/internal/<module> gives <module>; the Go runtime (scheduler, GC,
// allocation, maps, reflection, sync) gives "runtime"; anything else (the
// standard library, the benchmark itself, the root occamy package) is
// unattributed and gives "".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation: type arguments may hold paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:slash+1+dot]
	const internal = "occamy/internal/"
	switch {
	case strings.HasPrefix(pkg, internal):
		mod := pkg[len(internal):]
		if i := strings.IndexByte(mod, '/'); i >= 0 {
			mod = mod[:i]
		}
		return mod
	case pkg == "runtime", strings.HasPrefix(pkg, "internal/"), pkg == "reflect", pkg == "sync", pkg == "sync/atomic":
		return "runtime"
	}
	return ""
}

func foldProfile(samples []sample) profileFold {
	f := profileFold{self: map[string]float64{}, incl: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.nanos) / 1e9
		f.total += sec
		if len(s.stack) > 0 {
			if l := layerOf(s.stack[0]); l != "" {
				f.self[l] += sec
			}
		}
		hit := map[string]bool{}
		for _, fn := range s.stack {
			if m, ok := entryPoints[fn]; ok && !hit[m] {
				hit[m] = true
				f.incl[m] += sec
			}
		}
	}
	return f
}

// parseProfile decodes the samples of a gzipped pprof CPU profile (the
// perftools.profiles.Profile protobuf runtime/pprof writes) with just the
// fields the fold needs: samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, vals []uint64 }
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcs   = map[uint64]uint64{}   // function id -> name string index
	)
	err = eachField(raw, func(field, wire int, v uint64, b []byte) error {
		var err error
		switch field {
		case 2: // sample
			var s rawSample
			err = eachField(b, func(field, wire int, v uint64, b []byte) error {
				var err error
				switch field {
				case 1:
					s.locs, err = appendInts(s.locs, wire, v, b)
				case 2:
					s.vals, err = appendInts(s.vals, wire, v, b)
				}
				return err
			})
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			err = eachField(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(field, wire int, v uint64, b []byte) error {
						if field == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
		case 5: // function
			var id, name uint64
			err = eachField(b, func(field, wire int, v uint64, b []byte) error {
				switch field {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if len(rs.vals) == 0 {
			continue
		}
		s := sample{nanos: int64(rs.vals[len(rs.vals)-1])} // cpu/nanoseconds is the last value
		for _, l := range rs.locs {
			for _, fid := range locs[l] {
				if si := funcs[fid]; si < uint64(len(strs)) {
					s.stack = append(s.stack, strs[si])
				}
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's number,
// wire type, and its varint value or length-delimited bytes.
func eachField(b []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendInts appends a repeated integer field, packed or not.
func appendInts(dst []uint64, wire int, v uint64, b []byte) ([]uint64, error) {
	if wire != 2 {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
