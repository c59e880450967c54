package arch_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/digest"
	"occamy/internal/experiments"
	"occamy/internal/fault"
	"occamy/internal/isa"
	"occamy/internal/telemetry"
	"occamy/internal/traffic"
	"occamy/internal/workload"
)

// oracle is the reference for the compiled snapshot digest: a reflective
// walker that produces digest.go's word stream leaf by leaf, with no use of
// the compiled plans, and mixes it the same way: FNV-1a over 64-bit words
// in four interleaved lanes, folded at the end.
type oracle struct {
	lanes   [4]uint64
	n       int
	visited map[oracleVisit]bool
}

type oracleVisit struct {
	ptr uintptr
	typ reflect.Type
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// The shape words of digest.go's stream.
const (
	tagNil uint64 = iota
	tagPtr
	tagSeq
)

func oracleDigest(v reflect.Value) uint64 {
	o := oracle{visited: map[oracleVisit]bool{}}
	for k := range o.lanes {
		o.lanes[k] = fnvOffset64 + uint64(k)
	}
	o.walk(v)
	h := uint64(fnvOffset64)
	for _, l := range o.lanes {
		h = (h ^ l) * fnvPrime64
	}
	return h
}

// snapshotOracle digests a snapshot's content, every field but the stamp.
func snapshotOracle(st *arch.SystemState) uint64 {
	return oracleDigest(reflect.ValueOf(st).Elem().FieldByName("stateContent"))
}

func (o *oracle) word(w uint64) {
	o.lanes[o.n%4] = (o.lanes[o.n%4] ^ w) * fnvPrime64
	o.n++
}

func (o *oracle) image(b []byte) {
	o.word(uint64(len(b)))
	for i := 0; i < len(b); i += 8 {
		var w [8]byte
		copy(w[:], b[i:])
		o.word(binary.LittleEndian.Uint64(w[:]))
	}
}

func (o *oracle) walk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			o.word(1)
		} else {
			o.word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		o.word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		o.word(v.Uint())
	case reflect.Float32:
		o.word(uint64(math.Float32bits(float32(v.Float()))))
	case reflect.Float64:
		o.word(math.Float64bits(v.Float()))
	case reflect.Complex64:
		c := v.Complex()
		o.word(uint64(math.Float32bits(float32(real(c)))))
		o.word(uint64(math.Float32bits(float32(imag(c)))))
	case reflect.Complex128:
		c := v.Complex()
		o.word(math.Float64bits(real(c)))
		o.word(math.Float64bits(imag(c)))
	case reflect.String:
		o.image([]byte(v.String()))
	case reflect.Slice:
		if v.IsNil() {
			o.word(tagNil)
			return
		}
		o.word(tagSeq)
		if v.Type().Elem().Kind() == reflect.Uint8 {
			o.image(v.Bytes())
			return
		}
		o.word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			o.walk(v.Index(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			o.walk(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).Tag.Get("digest") != "-" {
				o.walk(v.Field(i))
			}
		}
	case reflect.Pointer:
		if v.IsNil() {
			o.word(tagNil)
			return
		}
		o.word(tagPtr)
		key := oracleVisit{v.Pointer(), v.Type()}
		if o.visited[key] {
			return
		}
		o.visited[key] = true
		o.walk(v.Elem())
	default:
		panic(fmt.Sprintf("oracle: %v is not plain data", v.Type()))
	}
}

// servePair and serveOptions build occamy-serve's campaign machine: the
// spec/WL20+spec/WL17 pair with the service's options (16 lanes per core,
// injector wired, watchdog armed).
func servePair() workload.CoSchedule {
	reg := workload.NewRegistry()
	return workload.CoSchedule{Name: "spec/WL20+spec/WL17",
		W: []*workload.Workload{reg.Workload("spec/WL20"), reg.Workload("spec/WL17")}}
}

var serveOptions = arch.Options{ExeBUs: 8, Seed: 7, WireInjector: true, StallCycles: 2_000_000}

// serveSystem is occamy-serve's campaign machine warmed up to cycle 20,000;
// serveShaped is the snapshot the campaign path caches from it.
func serveSystem(tb testing.TB, kind arch.Kind) *arch.System {
	tb.Helper()
	sys, err := arch.Build(kind, servePair(), serveOptions)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.RunTo(20_000); err != nil {
		tb.Fatal(err)
	}
	return sys
}

func serveShaped(tb testing.TB, kind arch.Kind) *arch.SystemState {
	tb.Helper()
	return serveSystem(tb, kind).Checkpoint()
}

// digestShape is one snapshot shape: the snapshot, the system it was taken
// from (left at the checkpoint cycle) and a builder of a fresh, identically
// built system to restore it onto.
type digestShape struct {
	st    *arch.SystemState
	src   *arch.System
	fresh func() *arch.System
}

// digestShapes builds kind's snapshots in the six shapes the digest must
// cover: the serve-shaped warm-up, the 64-core/4-cluster group, a fork past
// an applied ExeBU failure, flat and on that clustered group, and a finished
// traffic run with telemetry on, flat and on 2 clusters.
func digestShapes(t *testing.T, kind arch.Kind) map[string]digestShape {
	t.Helper()
	reg := workload.NewRegistry()
	build := func(s workload.CoSchedule, opts arch.Options) func() *arch.System {
		return func() *arch.System {
			sys, err := arch.Build(kind, s, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
	}
	shapes := map[string]digestShape{}
	add := func(name string, fresh func() *arch.System, run func(*arch.System)) {
		sys := fresh()
		run(sys)
		shapes[name] = digestShape{sys.Checkpoint(), sys, fresh}
	}
	runTo := func(cycle uint64) func(*arch.System) {
		return func(sys *arch.System) {
			if err := sys.RunTo(cycle); err != nil {
				t.Fatal(err)
			}
		}
	}
	add("serve", build(servePair(), serveOptions), runTo(20_000))

	group := experiments.ScaleGroup(reg, 64)
	for _, w := range group.W {
		for _, k := range w.Phases {
			k.Repeats = 1
		}
	}
	topo64 := &coproc.Topology{Clusters: 4, HopLatency: experiments.ScaleHopLatency, HopBandwidth: experiments.ScaleHopBandwidth}
	add("topo64", build(group, arch.Options{Seed: 11, Topology: topo64}), runTo(3000))

	// forkAt warms a system up to cycle at, forks it through a checkpoint,
	// applies spec's faults and runs on to cycle end.
	forkAt := func(at uint64, spec string, end uint64) func(*arch.System) {
		faults, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return func(sys *arch.System) {
			runTo(at)(sys)
			if err := sys.RestoreCheckpoint(sys.Checkpoint()); err != nil {
				t.Fatal(err)
			}
			sys.SetFaultSchedule(faults)
			runTo(end)(sys)
		}
	}
	add("fork", build(workload.MotivatingPair(reg), arch.Options{Seed: 11, WireInjector: true}), forkAt(20_000, "exebu:1@25000", 26_000))
	add("topo64-fork", build(group, arch.Options{Seed: 11, Topology: topo64, WireInjector: true}), forkAt(2000, "exebu:cl1:1@2500", 3000))
	if got := shapes["topo64-fork"].src.Clusters[1].Tbl().Failed(); got != 1 {
		t.Fatalf("clustered fork: cluster 1 has %d failed ExeBUs, want 1", got)
	}
	// Occamy recovers by repartitioning its lanes; the other three carry
	// the failure in the co-processor's fault state.
	if flt := reflect.ValueOf(shapes["fork"].st).Elem().FieldByName("cplx").FieldByName("clusters").Index(0).FieldByName("flt"); flt.IsNil() != (kind == arch.Occamy) {
		t.Fatalf("fork snapshot: co-processor fault state nil = %v", flt.IsNil())
	}

	ts, err := traffic.ParseSpec("poisson:load=2,tenants=3,cores=2,horizon=12000,slice=400,elems=384,repeats=1,churn=900:1300")
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*coproc.Topology{"traffic": nil, "traffic-cl2": {Clusters: 2}} {
		scenario := func() *traffic.Scenario {
			sc, err := traffic.Build(kind, ts, arch.Options{Seed: 11, Telemetry: &telemetry.Config{Window: 128}, Topology: topo})
			if err != nil {
				t.Fatal(err)
			}
			return sc
		}
		sc := scenario()
		if err := sc.Run(sc.DefaultBudget()); err != nil {
			t.Fatal(err)
		}
		shapes[name] = digestShape{sc.Sys.Checkpoint(), sc.Sys, func() *arch.System { return scenario().Sys }}
	}
	return shapes
}

// TestSnapshotDigestMatchesOracle: the compiled digest — stamped by
// Checkpoint and recomputed by Verify — equals the reflective oracle on
// every architecture in every snapshot shape.
func TestSnapshotDigestMatchesOracle(t *testing.T) {
	for _, kind := range arch.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for name, sh := range digestShapes(t, kind) {
				st := sh.st
				if err := st.Verify(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if got, want := st.Digest(), snapshotOracle(st); got != want {
					t.Errorf("%s: compiled digest %016x, oracle %016x", name, got, want)
				}
			}
		})
	}
}

// TestCheckpointRoundTrip: in every snapshot shape on every architecture,
// the codec's Sum of the source system's live state equals the stamped
// digest, and a freshly built system restored from the snapshot digests the
// same live and re-checkpoints to the same digest. A failure names the
// first differing field path.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, kind := range arch.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for name, sh := range digestShapes(t, kind) {
				if got := sh.src.LiveDigest(); got != sh.st.Digest() {
					again := sh.src.Checkpoint()
					t.Errorf("%s: live state digests %016x, stamp %016x; first difference at %s",
						name, got, sh.st.Digest(), digest.Diff(sh.st, again))
				}
				sys := sh.fresh()
				if err := sys.RestoreCheckpoint(sh.st); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				again := sys.Checkpoint()
				if d := digest.Diff(sh.st, again); d != "" || sys.LiveDigest() != sh.st.Digest() {
					t.Errorf("%s: restored system re-checkpoints differently (live %016x, checkpoint %016x, stamp %016x); first difference at %s",
						name, sys.LiveDigest(), again.Digest(), sh.st.Digest(), d)
				}
			}
		})
	}
}

// TestSnapshotHoldsNoWiring: no program, map, interface, func or chan is
// reachable from a snapshot's type — a checkpoint is component state only,
// never configuration or wiring a restore would have to share, and plain
// data the codec copies.
func TestSnapshotHoldsNoWiring(t *testing.T) {
	prog := reflect.TypeOf(isa.Program{})
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Map, reflect.Interface, reflect.Func, reflect.Chan, reflect.UnsafePointer:
			t.Errorf("%s is a %v", path, typ.Kind())
		case reflect.Struct:
			if typ == prog {
				t.Errorf("%s is a program", path)
			}
			for i := 0; i < typ.NumField(); i++ {
				if f := typ.Field(i); f.Tag.Get("digest") != "-" {
					walk(f.Type, path+"."+f.Name)
				}
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(typ.Elem(), path+"[]")
		}
	}
	walk(reflect.TypeOf(arch.SystemState{}), "SystemState")
}

// TestRestoreOntoSelfAllocatesNothing pins restore cost: restoring the
// serve-shaped snapshot onto the system it was taken from writes every
// component's state in place, and verifying the snapshot's digest first
// allocates nothing either.
func TestRestoreOntoSelfAllocatesNothing(t *testing.T) {
	for _, kind := range arch.Kinds {
		sys := serveSystem(t, kind)
		st := sys.Checkpoint()
		if n := testing.AllocsPerRun(10, func() { sys.RestoreCheckpointTrusted(st) }); n != 0 {
			t.Errorf("%v: RestoreCheckpointTrusted onto its own system allocated %v times", kind, n)
		}
		if n := testing.AllocsPerRun(10, func() { _ = st.Verify() }); n != 0 {
			t.Errorf("%v: Verify allocated %v times", kind, n)
		}
	}
}

// TestRegistriesFixedAcrossRun: every counter and histogram is registered
// while a system is built, so in every snapshot shape on every architecture
// the system that ran holds exactly as many as a freshly built one — a
// snapshot's registries always have the shape of the system it restores
// onto.
func TestRegistriesFixedAcrossRun(t *testing.T) {
	for _, kind := range arch.Kinds {
		t.Run(kind.String(), func(t *testing.T) {
			for name, sh := range digestShapes(t, kind) {
				fresh := sh.fresh()
				if got, want := sh.src.Stats.Len(), fresh.Stats.Len(); got != want {
					t.Errorf("%s: %d counters after the run, %d when built", name, got, want)
				}
				if got, want := sh.src.Probe.Len(), fresh.Probe.Len(); got != want {
					t.Errorf("%s: %d histograms after the run, %d when built", name, got, want)
				}
			}
		})
	}
}

// TestSnapshotDigestIgnoresPadding: garbage in the padding bytes of the
// co-processor's pool-ring entries (XInst has padding between its narrow
// fields) leaves the digest unchanged — padding is not state.
func TestSnapshotDigestIgnoresPadding(t *testing.T) {
	st := serveShaped(t, arch.Occamy)
	typ := reflect.TypeOf(coproc.XInst{})
	var pad []uintptr
	var end uintptr
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		for b := end; b < f.Offset; b++ {
			pad = append(pad, b)
		}
		end = f.Offset + f.Type.Size()
	}
	for b := end; b < typ.Size(); b++ {
		pad = append(pad, b)
	}
	if len(pad) == 0 {
		t.Fatal("XInst has no padding; the test needs a padded type")
	}
	entries := 0
	rows := reflect.ValueOf(st).Elem().FieldByName("cplx").FieldByName("rows")
	for c := 0; c < rows.Len(); c++ {
		queue := rows.Index(c).FieldByName("queue").Elem()
		for i := 0; i < queue.Len(); i++ {
			base := unsafe.Pointer(queue.Index(i).UnsafeAddr())
			for _, b := range pad {
				*(*byte)(unsafe.Add(base, b)) = 0xa5
			}
			entries++
		}
	}
	if entries == 0 {
		t.Fatal("snapshot has no pool-ring entries")
	}
	if err := st.Verify(); err != nil {
		t.Fatalf("garbage in %d padding bytes of %d ring entries changed the digest: %v", len(pad), entries, err)
	}
}

// TestSnapshotDigestConcurrentColdPlans digests two architectures'
// snapshots from parallel goroutines on an empty plan cache, so both
// compile plans at once; run under -race it checks the cache's locking.
func TestSnapshotDigestConcurrentColdPlans(t *testing.T) {
	snaps := []*arch.SystemState{serveShaped(t, arch.Occamy), serveShaped(t, arch.FTS)}
	arch.ResetDigestPlans()
	var wg sync.WaitGroup
	errs := make([]error, len(snaps))
	for i, st := range snaps {
		wg.Add(1)
		go func(i int, st *arch.SystemState) {
			defer wg.Done()
			errs[i] = st.Verify()
		}(i, st)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("snapshot %d: %v", i, err)
		}
	}
}

// tamperLeaf is one leaf of a snapshot FuzzCheckpointTamper can flip a bit
// of: a scalar, a byte image or a string.
type tamperLeaf struct {
	path  string
	addr  unsafe.Pointer
	bytes int
	str   bool // flipped by replacing the string with a flipped copy
}

// flip toggles one bit of the leaf; flipping the same bit again undoes it.
func (l *tamperLeaf) flip(bit int) {
	if l.str {
		s := (*string)(l.addr)
		b := []byte(*s)
		b[bit/8] ^= 1 << (bit % 8)
		*s = string(b)
	} else {
		*(*byte)(unsafe.Add(l.addr, bit/8)) ^= 1 << (bit % 8)
	}
}

// tamperLeaves enumerates v's leaves reflectively, independent of the
// digest's plans: fields in order, elements by index, pointers followed
// once. Shape (lengths, nil-ness) is not a leaf, and neither is a field
// tagged `digest:"-"`, which is not state.
func tamperLeaves(v reflect.Value, path string, seen map[uintptr]bool, out []tamperLeaf) []tamperLeaf {
	switch v.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return append(out, tamperLeaf{path: path, addr: unsafe.Pointer(v.UnsafeAddr()), bytes: int(v.Type().Size())})
	case reflect.String:
		if v.Len() == 0 {
			return out
		}
		return append(out, tamperLeaf{path: path, addr: unsafe.Pointer(v.UnsafeAddr()), bytes: v.Len(), str: true})
	case reflect.Slice:
		if v.Type().Elem().Kind() == reflect.Uint8 {
			if v.Len() == 0 {
				return out
			}
			return append(out, tamperLeaf{path: path, addr: v.UnsafePointer(), bytes: v.Len()})
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = tamperLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i), seen, out)
		}
	case reflect.Struct:
		sep := "."
		if path == "" || strings.HasSuffix(path, "->") {
			sep = ""
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Tag.Get("digest") != "-" {
				out = tamperLeaves(v.Field(i), path+sep+f.Name, seen, out)
			}
		}
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return out
		}
		seen[v.Pointer()] = true
		return tamperLeaves(v.Elem(), path+"->", seen, out)
	}
	return out
}

// FuzzCheckpointTamper flips one bit of one leaf of a snapshot. The digest
// must catch it: RestoreCheckpoint returns *CorruptCheckpointError and
// leaves the target exactly as it was (its own checkpoint digest does not
// move), and flipping the bit back restores cleanly.
func FuzzCheckpointTamper(f *testing.F) {
	build := func(cycle uint64) *arch.System {
		sys, err := arch.Build(arch.Occamy, servePair(), serveOptions)
		if err != nil {
			f.Fatal(err)
		}
		if err := sys.RunTo(cycle); err != nil {
			f.Fatal(err)
		}
		return sys
	}
	snap := build(2000).Checkpoint()
	target := build(1500)
	leaves := tamperLeaves(reflect.ValueOf(snap).Elem(), "", map[uintptr]bool{}, nil)

	// One seed per plan kind: a raw tag-array word, a byte image, a field
	// of a padded struct, a counter in a registry chunk and a field behind
	// a pointer.
	for _, want := range []string{"hier.L2.lines[", "hier.Mem.pages[", ".queue->[", "stats.chunks[", "ctl->"} {
		i := slices.IndexFunc(leaves, func(l tamperLeaf) bool { return strings.Contains(l.path, want) })
		if i < 0 {
			f.Fatalf("no leaf under %q", want)
		}
		f.Add(uint32(i), uint32(3))
	}

	f.Fuzz(func(t *testing.T, leaf, bit uint32) {
		l := &leaves[leaf%uint32(len(leaves))]
		b := int(bit % uint32(8*l.bytes))
		l.flip(b)
		before := target.Checkpoint().Digest()
		err := target.RestoreCheckpoint(snap)
		after := target.Checkpoint().Digest()
		l.flip(b)
		var cerr *arch.CorruptCheckpointError
		if !errors.As(err, &cerr) {
			t.Fatalf("%s bit %d: RestoreCheckpoint = %v, want *CorruptCheckpointError", l.path, b, err)
		}
		if before != after {
			t.Fatalf("%s bit %d: refused restore changed the target (digest %016x -> %016x)", l.path, b, before, after)
		}
		if err := target.RestoreCheckpoint(snap); err != nil {
			t.Fatalf("%s bit %d: restore after flipping back: %v", l.path, b, err)
		}
	})
}

// BenchmarkSnapshotDigest is the integrity tax on occamy-serve's campaign
// path: one Verify of the snapshot it caches (serveShaped), per
// architecture, and the reflective oracle over the same snapshots for
// scale. Checkpoint pays the digest once at capture; every cache hit and
// every campaign point pays it again through RestoreCheckpoint.
func BenchmarkSnapshotDigest(b *testing.B) {
	snaps := map[arch.Kind]*arch.SystemState{}
	for _, kind := range arch.Kinds {
		snaps[kind] = serveShaped(b, kind)
	}
	for _, kind := range arch.Kinds {
		st := snaps[kind]
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := st.Verify(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, kind := range arch.Kinds {
		st := snaps[kind]
		b.Run("oracle/"+kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if snapshotOracle(st) != st.Digest() {
					b.Fatal("oracle disagrees with the stamp")
				}
			}
		})
	}
}
