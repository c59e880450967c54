package fault

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		spec string
		want []Fault
	}{
		{"", nil},
		{"exebu@50000", []Fault{{Kind: ExeBU, Count: 1, Core: AnyCore, Cluster: AnyCluster, At: 50000}}},
		{"exebu:3@50000", []Fault{{Kind: ExeBU, Count: 3, Core: AnyCore, Cluster: AnyCluster, At: 50000}}},
		{"exebu:2@50000+20000", []Fault{{Kind: ExeBU, Count: 2, Core: AnyCore, Cluster: AnyCluster, At: 50000, For: 20000}}},
		{"regs:core1:32@2000", []Fault{{Kind: RegBank, Count: 32, Core: 1, Cluster: AnyCluster, At: 2000}}},
		{"regs:16@2000+100", []Fault{{Kind: RegBank, Count: 16, Core: AnyCore, Cluster: AnyCluster, At: 2000, For: 100}}},
		{"bw:dram:0.5@1000+9000", []Fault{{Kind: Bandwidth, Count: 1, Core: AnyCore, Cluster: AnyCluster, Level: "dram", Factor: 0.5, At: 1000, For: 9000}}},
		{"xmit:core0@500+2000", []Fault{{Kind: XmitLink, Count: 1, Core: 0, Cluster: AnyCluster, At: 500, For: 2000}}},
		{"xmit:core0:16@500+2000", []Fault{{Kind: XmitLink, Count: 1, Core: 0, Cluster: AnyCluster, Delay: 16, At: 500, For: 2000}}},
		{"exebu:cl1:2@50000", []Fault{{Kind: ExeBU, Count: 2, Core: AnyCore, Cluster: 1, At: 50000}}},
		{"exebu:cl2@50000", []Fault{{Kind: ExeBU, Count: 1, Core: AnyCore, Cluster: 2, At: 50000}}},
		{"xmit:cl0:core1@500+2000", []Fault{{Kind: XmitLink, Count: 1, Core: 1, Cluster: 0, At: 500, For: 2000}}},
		{"xmit:cl3:core0:16@500+2000", []Fault{{Kind: XmitLink, Count: 1, Core: 0, Cluster: 3, Delay: 16, At: 500, For: 2000}}},
		{"exebu@100; bw:l2:0.25@200+50", []Fault{
			{Kind: ExeBU, Count: 1, Core: AnyCore, Cluster: AnyCluster, At: 100},
			{Kind: Bandwidth, Count: 1, Core: AnyCore, Cluster: AnyCluster, Level: "l2", Factor: 0.25, At: 200, For: 50},
		}},
	}
	for _, c := range cases {
		got, err := ParseSpec(c.spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", c.spec, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"exebu",            // no cycle
		"exebu@x",          // bad cycle
		"exebu:0@100",      // zero count
		"exebu:-1@100",     // negative count
		"exebu:1:2@100",    // too many args
		"quark@100",        // unknown kind
		"bw:dram@100",      // missing factor
		"bw:tape:0.5@100",  // unknown level
		"bw:dram:0@100",    // zero factor
		"bw:dram:1.5@100",  // factor > 1
		"regs@100",         // missing count
		"regs:coreX:8@100", // bad core
		"exebu@100+0",      // zero transient duration
		"exebu:clX@100",    // bad cluster
		"exebu:cl-2@100",   // cluster below AnyCluster
		"xmit:clX@100+5",   // bad cluster
		"bw:dram:NaN@1000", // NaN factor
		"bw:l2:-Inf@1000",  // infinite factor
	}
	for _, spec := range bad {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q): expected error, got none", spec)
		}
	}
	var fe *FactorError
	if _, err := ParseSpec("bw:dram:NaN@1000"); !errors.As(err, &fe) {
		t.Errorf("NaN factor: error %v is not a *FactorError", err)
	}
}

func TestParseSpecRoundTrip(t *testing.T) {
	specs := []string{
		"exebu:2@50000+20000",
		"exebu:cl1:2@50000",
		"regs:core1:32@2000",
		"bw:dram:0.5@1000+9000",
		"xmit:core0:16@500+2000",
		"xmit:cl2:core0@500+2000",
		"exebu:cl0:2@50000",
		"xmit:cl0:core1@500+2000",
	}
	for _, spec := range specs {
		fs, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if len(fs) != 1 {
			t.Fatalf("ParseSpec(%q): want 1 fault, got %d", spec, len(fs))
		}
		again, err := ParseSpec(fs[0].String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", fs[0].String(), err)
		}
		if !reflect.DeepEqual(fs, again) {
			t.Errorf("round trip %q -> %q -> %+v != %+v", spec, fs[0].String(), again, fs)
		}
		if fs[0].String() != spec {
			t.Errorf("ParseSpec(%q).String() = %q", spec, fs[0].String())
		}
	}
}

// specGrammar is every example in ParseSpec's doc comment.
var specGrammar = []string{
	"exebu@50000",
	"exebu:3@50000",
	"exebu:2@50000+20000",
	"exebu:cl1:2@50000",
	"regs:core1:32@2000",
	"bw:dram:0.5@1000+9000",
	"xmit:core0@500+2000",
	"xmit:core0:16@500+2000",
	"xmit:cl0:core1@500+2000",
}

// FuzzParseSpec: ParseSpec never panics, every fault it accepts passes
// Validate, and re-parsing the accepted faults' String forms gives the same
// faults.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range specGrammar {
		f.Add(spec)
	}
	f.Add(strings.Join(specGrammar, ";"))
	f.Add("bw:dram:NaN@1000")
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseSpec(spec)
		if err != nil {
			return
		}
		forms := make([]string, len(fs))
		for i, flt := range fs {
			if err := flt.Validate(); err != nil {
				t.Fatalf("ParseSpec(%q) accepted %+v, which fails Validate: %v", spec, flt, err)
			}
			forms[i] = flt.String()
		}
		again, err := ParseSpec(strings.Join(forms, ";"))
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", forms, spec, err)
		}
		if !reflect.DeepEqual(fs, again) {
			t.Fatalf("round trip %q -> %q: %+v != %+v", spec, forms, again, fs)
		}
	})
}

// FuzzParseJSON: ParseJSON never panics and every fault it accepts passes
// Validate.
func FuzzParseJSON(f *testing.F) {
	f.Add([]byte(`[{"kind": "exebu", "count": 2, "at": 1000, "for": 500}, {"kind": "regs", "core": 1, "count": 32, "at": 2000}]`))
	f.Add([]byte(`[{"kind": "bw", "level": "dram", "factor": 0.5, "at": 3000, "for": 100}]`))
	f.Add([]byte(`[{"kind": "xmit", "core": 0, "cluster": 1, "at": 4000, "for": 50, "delay": 4}]`))
	f.Add([]byte(`[{"kind": "exebu", "cluster": -1, "count": -3, "at": 1}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := ParseJSON(data)
		if err != nil {
			return
		}
		for _, flt := range fs {
			if err := flt.Validate(); err != nil {
				t.Fatalf("ParseJSON(%q) accepted %+v, which fails Validate: %v", data, flt, err)
			}
		}
	})
}

func TestParseJSON(t *testing.T) {
	data := []byte(`[
		{"kind": "exebu", "count": 2, "at": 1000, "for": 500},
		{"kind": "regs", "core": 1, "count": 32, "at": 2000},
		{"kind": "bw", "level": "dram", "factor": 0.5, "at": 3000, "for": 100},
		{"kind": "xmit", "core": 0, "at": 4000, "for": 50, "delay": 4}
	]`)
	fs, err := ParseJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: ExeBU, Count: 2, Core: AnyCore, Cluster: AnyCluster, At: 1000, For: 500},
		{Kind: RegBank, Count: 32, Core: 1, Cluster: AnyCluster, At: 2000},
		{Kind: Bandwidth, Count: 1, Core: AnyCore, Cluster: AnyCluster, Level: "dram", Factor: 0.5, At: 3000, For: 100},
		{Kind: XmitLink, Count: 1, Core: 0, Cluster: AnyCluster, At: 4000, For: 50, Delay: 4},
	}
	if !reflect.DeepEqual(fs, want) {
		t.Errorf("ParseJSON = %+v, want %+v", fs, want)
	}
	if _, err := ParseJSON([]byte(`[{"kind": "bogus", "at": 1}]`)); err == nil {
		t.Error("ParseJSON with unknown kind: expected error")
	}
	if _, err := ParseJSON([]byte(`not json`)); err == nil {
		t.Error("ParseJSON with garbage: expected error")
	}
}

// recorder logs handler calls for injector tests.
type recorder struct {
	log []string
}

func (r *recorder) Apply(f Fault, now uint64)  { r.log = append(r.log, "apply:"+f.String()) }
func (r *recorder) Revert(f Fault, now uint64) { r.log = append(r.log, "revert:"+f.String()) }
func (r *recorder) Poll(now uint64)            {}

func TestInjectorFiresInOrder(t *testing.T) {
	faults, err := ParseSpec("exebu@10+5; regs:core0:8@12")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	inj := NewInjector(faults, 2, 1, rec)
	for now := uint64(0); now < 20; now++ {
		inj.Tick(now)
	}
	want := []string{
		"apply:exebu@10+5",
		"apply:regs:core0:8@12",
		"revert:exebu@10+5",
	}
	if !reflect.DeepEqual(rec.log, want) {
		t.Errorf("injector log = %v, want %v", rec.log, want)
	}
	if inj.Applied() != 3 {
		t.Errorf("Applied = %d, want 3", inj.Applied())
	}
}

// TestInjectorSeededVictim: AnyCore victims resolve deterministically from
// the seed, and different seeds can choose different victims.
func TestInjectorSeededVictim(t *testing.T) {
	faults, err := ParseSpec("regs:8@100")
	if err != nil {
		t.Fatal(err)
	}
	pick := func(seed uint64) int {
		inj := NewInjector(faults, 4, seed, &recorder{})
		return inj.Schedule()[0].Core
	}
	for seed := uint64(0); seed < 8; seed++ {
		a, b := pick(seed), pick(seed)
		if a != b {
			t.Fatalf("seed %d: victim not deterministic: %d vs %d", seed, a, b)
		}
		if a < 0 || a >= 4 {
			t.Fatalf("seed %d: victim %d out of range", seed, a)
		}
	}
	distinct := map[int]bool{}
	for seed := uint64(0); seed < 32; seed++ {
		distinct[pick(seed)] = true
	}
	if len(distinct) < 2 {
		t.Error("seeded victim selection never varies across 32 seeds")
	}
}
