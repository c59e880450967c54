package arch_test

import (
	"reflect"
	"strings"
	"testing"

	"occamy/internal/arch"
	"occamy/internal/coproc"
	"occamy/internal/telemetry"
	"occamy/internal/traffic"
)

// Each field a stateful component keeps outside its state struct has one of
// these classes. None of them is checkpointed, so each must be something a
// restore need not carry.
const (
	// wiring: a neighbour, port, hook, sink, or a handle (a counter cell, a
	// histogram) into another component's state.
	wiring = "wiring"
	// configuration: fixed when the system is built, or replaced whole by a
	// reconfiguration call such as a fault reschedule.
	configuration = "configuration"
	// derived: rebuilt from the state on restore, or scratch that holds
	// nothing between uses.
	derived = "derived"
	// hostSide: execution strategy or host measurement, which no simulated
	// number depends on.
	hostSide = "host-side"
)

// outsideState is the reviewed allow-list: for each stateful component, by
// type, the class of every field outside its state struct. A component is a
// struct that embeds its state struct, a struct type named ...State (or
// ...state).
var outsideState = map[string]map[string]string{
	"sim.Engine": {
		"components": wiring, "sleepers": wiring, "stats": wiring, "interrupt": wiring, "wd": wiring,
		"skip": configuration, "wdThreshold": configuration,
		"pollCtr": hostSide, "wdQuietUntil": hostSide,
	},
	"sim.Stats": {
		"names": wiring, "index": wiring,
		"quiet": configuration,
	},
	"obs.Probe": {
		"sink": wiring, "index": wiring,
	},
	"mem.Cache": {
		"next": wiring, "cHit": wiring, "cMiss": wiring, "cReject": wiring, "cWriteback": wiring, "cPrefetch": wiring,
		"cfg": configuration, "setMask": configuration, "setShift": configuration, "tagShift": configuration,
		"retryHits": derived,
	},
	"mem.DRAM": {
		"lat": wiring, "cBytes": wiring, "cWrites": wiring, "cReads": wiring,
		"cfg": configuration,
	},
	"mem.Memory": {
		"index": derived, "lastIdx": derived, "lastPage": derived,
	},
	"cpu.Core": {
		"prog": wiring, "cp": wiring, "l1": wiring, "data": wiring, "stats": wiring, "probe": wiring,
		"phaseCycleCells": wiring, "phaseEnteredCells": wiring, "phaseCyclePool": wiring, "phaseEnteredPool": wiring,
		"poolFullCell": wiring, "mobStallCell": wiring, "haltCycleCell": wiring, "reconfigCell": wiring, "monitorCell": wiring,
		"id": configuration, "cfg": configuration, "parking": configuration,
		"xinst": derived, "waitSlot": derived,
		"parkedTicks": hostSide,
	},
	"coproc.Coproc": {
		"tbl": wiring, "mgr": wiring, "vec": wiring, "vecProbe": wiring, "data": wiring, "cores": wiring,
		"respond": wiring, "slotFreed": wiring, "storms": wiring, "probe": wiring, "laneSink": wiring,
		"renameStallsCell": wiring, "mshrRetriesCell": wiring, "drainWaitCell": wiring,
		"repartCell": wiring, "reconfCell": wiring, "rejectCell": wiring,
		"retireHists": wiring, "drainHist": wiring,
		"cfg": configuration, "name": configuration, "parking": configuration, "lanes": configuration,
		"home": derived, "active": derived, "live": derived, "stormRows": derived,
		"rotStart": derived, "rotLast": derived, "decArena": derived,
		"sleepStamp": hostSide, "parkedTicks": hostSide, "stormFrom": hostSide, "stormCount": hostSide,
	},
	"coproc.coreState": {
		"sb": derived, "busy": derived,
		"fx": hostSide, "parkUntil": hostSide, "idle": hostSide,
	},
	"coproc.Complex": {
		"cls": wiring, "rows": wiring, "hier": wiring,
		"topo": configuration, "group": configuration,
	},
	"lanemgr.ResourceTbl": {
		"total": configuration,
	},
	"lanemgr.Manager": {
		"Tbl": wiring, "AfterRepartition": wiring,
		"Model":      configuration,
		"scratchOIs": derived, "scratchVLs": derived, "scratchCand": derived,
	},
	"lanemgr.Hier": {
		"Mgrs": wiring, "OnMigrate": wiring,
		"Topo": configuration, "Threshold": configuration,
		"active": derived, "balancing": derived,
	},
	"fault.Injector": {
		"handler": wiring,
		"events":  configuration,
	},
	"arch.faultCtl": {
		"sys": wiring,
		"n":   configuration,
	},
	"telemetry.Sampler": {
		"src": wiring, "hists": wiring, "onWindow": wiring, "sink": wiring,
		"cfg":     configuration,
		"scratch": derived, "delta": derived,
		"mu": hostSide, "host": hostSide, "meta": hostSide, "lastWall": hostSide,
	},
	"osched.Scheduler": {
		"sys": wiring, "hooks": wiring,
		"slice": configuration, "elastic": configuration, "names": configuration, "progs": configuration,
	},
	"traffic.Source": {
		"sched": wiring,
		"spec":  configuration, "trace": configuration,
		"tenantOf": derived, "byTenant": derived,
	},
}

// stateField returns the name of t's embedded state struct, or "".
func stateField(t reflect.Type) string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous && f.Type.Kind() == reflect.Struct && strings.HasSuffix(strings.ToLower(f.Type.Name()), "state") {
			return f.Name
		}
	}
	return ""
}

// holdsRefs reports whether a t value can reach another value: the walk
// skips what cannot, such as a cache's tag array.
func holdsRefs(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.Interface, reflect.Slice:
		return true
	case reflect.Array:
		return holdsRefs(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if holdsRefs(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// components walks every value reachable from v and returns each stateful
// component type it meets. It does not enter a state struct: by the tree
// rule a state struct holds no component.
func components(v reflect.Value) map[reflect.Type]bool {
	found := map[reflect.Type]bool{}
	type visit struct {
		ptr uintptr
		typ reflect.Type
	}
	seen := map[visit]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if v.IsNil() || seen[visit{v.Pointer(), v.Type()}] {
				return
			}
			seen[visit{v.Pointer(), v.Type()}] = true
			walk(v.Elem())
		case reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Slice, reflect.Array:
			if holdsRefs(v.Type().Elem()) {
				for i := 0; i < v.Len(); i++ {
					walk(v.Index(i))
				}
			}
		case reflect.Struct:
			state := stateField(v.Type())
			if state != "" {
				found[v.Type()] = true
			}
			for i := 0; i < v.NumField(); i++ {
				if v.Type().Field(i).Name != state {
					walk(v.Field(i))
				}
			}
		}
	}
	walk(v)
	return found
}

// TestStateCompleteness holds every field outside a component's state struct
// to the reviewed allow-list, so a new field is classified on review instead
// of silently left out of every checkpoint. It walks a traffic scenario on a
// 2-cluster machine with the fault injector, the probe and the sampler
// wired, which reaches every stateful component, and fails on a component
// missing from the list, a field missing from its entry, or a stale entry.
func TestStateCompleteness(t *testing.T) {
	ts, err := traffic.ParseSpec("poisson:load=2,tenants=3,cores=2,horizon=12000,slice=400,elems=384,repeats=1,churn=900:1300")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := traffic.Build(arch.Occamy, ts, arch.Options{Seed: 11, WireInjector: true,
		Telemetry: &telemetry.Config{Window: 128}, Topology: &coproc.Topology{Clusters: 2}})
	if err != nil {
		t.Fatal(err)
	}
	reached := map[string]bool{}
	for typ := range components(reflect.ValueOf(sc)) {
		reached[typ.String()] = true
		allowed, ok := outsideState[typ.String()]
		state := stateField(typ)
		if !ok {
			t.Errorf("%s is a stateful component with no allow-list entry: classify every field outside %s", typ, state)
			continue
		}
		fields := map[string]bool{}
		for i := 0; i < typ.NumField(); i++ {
			name := typ.Field(i).Name
			fields[name] = true
			if _, ok := allowed[name]; !ok && name != state {
				t.Errorf("%s.%s is outside %s and not on the allow-list: checkpoint it, or classify it as wiring, configuration, derived or host-side", typ, name, state)
			}
		}
		for name := range allowed {
			if !fields[name] {
				t.Errorf("allow-list entry %s.%s names no field", typ, name)
			}
		}
	}
	for name := range outsideState {
		if !reached[name] {
			t.Errorf("the walk never reached %s", name)
		}
	}
}
