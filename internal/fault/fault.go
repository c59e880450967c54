// Package fault is the deterministic fault-injection subsystem: a small
// vocabulary of hardware fault models (failed ExeBUs, failed register-file
// banks, degraded memory bandwidth, flaky CPU→co-processor links), a textual
// spec format for the -faults CLI flag (plus a JSON file form), and an
// Injector that fires the faults at their scheduled cycles through a Handler
// supplied by the architecture layer.
//
// Determinism is the design requirement, as everywhere in this simulator: a
// fault spec plus a seed fully determines every injection. The seed only
// matters for specs that leave a victim unassigned (e.g. "regs:32@5000" with
// no core) — the injector then derives the victim from the seed with a
// splitmix64 step, so two runs with the same spec and seed always hit the
// same unit.
package fault

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the fault models.
type Kind uint8

const (
	// ExeBU marks one or more execution-block units (granules of 4 lanes)
	// failed. With For == 0 the failure is permanent; otherwise the units
	// return to service after For cycles (a transient fault).
	ExeBU Kind = iota
	// RegBank fails register-file banks: the victim core's physical
	// register pool shrinks by Count registers (restored after For cycles
	// when transient).
	RegBank
	// Bandwidth degrades a memory level's sustained bandwidth to Factor
	// times its configured rate for the fault window (a token-rate cut).
	Bandwidth
	// XmitLink drops CPU→co-processor transmissions on the victim core's
	// dispatch link. Dropped transmissions are retried by the CPU and
	// accepted with a bounded exponential backoff for the fault window.
	XmitLink
)

func (k Kind) String() string {
	switch k {
	case ExeBU:
		return "exebu"
	case RegBank:
		return "regs"
	case Bandwidth:
		return "bw"
	case XmitLink:
		return "xmit"
	}
	return fmt.Sprintf("fault.Kind(%d)", k)
}

// AnyCore means "no victim core named in the spec": the injector derives one
// deterministically from its seed.
const AnyCore = -1

// AnyCluster means "no cluster named in the spec". On a flat machine (one
// co-processor) it is indistinguishable from cluster 0; on a clustered
// topology the architecture layer resolves it per kind — ExeBU faults land on
// cluster 0 (a deterministic default) while XmitLink faults degrade the
// victim core's link into every cluster (the core's dispatch path is faulty
// wherever it transmits).
const AnyCluster = -1

// Fault is one injection: a kind, a target, and a cycle window.
type Fault struct {
	Kind Kind `json:"kind"`
	// Count is the number of units affected: ExeBU granules for ExeBU
	// faults, physical registers for RegBank faults. Defaults to 1.
	Count int `json:"count,omitempty"`
	// Core is the victim core for RegBank and XmitLink faults (AnyCore
	// lets the injector pick one from the seed). Ignored for ExeBU and
	// Bandwidth faults.
	Core int `json:"core,omitempty"`
	// Cluster scopes ExeBU and XmitLink faults to one co-processor cluster
	// of a clustered topology ("exebu:cl1:2@5000"). AnyCluster leaves the
	// choice to the architecture layer; on a flat machine both mean the
	// single co-processor. Ignored for RegBank and Bandwidth faults. Note
	// the zero value names cluster 0 explicitly, which coincides with the
	// flat machine's only cluster — specs built by ParseSpec/ParseJSON get
	// AnyCluster when no cluster is named.
	Cluster int `json:"cluster,omitempty"`
	// Level names the degraded memory level for Bandwidth faults:
	// "dram", "l2" or "vec".
	Level string `json:"level,omitempty"`
	// Factor is the bandwidth retained during a Bandwidth fault, in
	// (0, 1]; e.g. 0.5 halves the level's token rate.
	Factor float64 `json:"factor,omitempty"`
	// At is the injection cycle.
	At uint64 `json:"at"`
	// For is the fault duration in cycles; 0 means permanent.
	For uint64 `json:"for,omitempty"`
	// Delay is the base retry backoff for XmitLink faults, in cycles
	// (defaults to 8). Each consecutive accepted transmission during the
	// window doubles the delay before the next, up to 16x the base.
	Delay uint64 `json:"delay,omitempty"`
}

func (f Fault) String() string {
	var b strings.Builder
	b.WriteString(f.Kind.String())
	switch f.Kind {
	case ExeBU:
		if f.Cluster != AnyCluster {
			fmt.Fprintf(&b, ":cl%d", f.Cluster)
		}
		if f.Count != 1 {
			fmt.Fprintf(&b, ":%d", f.Count)
		}
	case RegBank:
		if f.Core != AnyCore {
			fmt.Fprintf(&b, ":core%d", f.Core)
		}
		fmt.Fprintf(&b, ":%d", f.Count)
	case Bandwidth:
		fmt.Fprintf(&b, ":%s:%g", f.Level, f.Factor)
	case XmitLink:
		if f.Cluster != AnyCluster {
			fmt.Fprintf(&b, ":cl%d", f.Cluster)
		}
		if f.Core != AnyCore {
			fmt.Fprintf(&b, ":core%d", f.Core)
		}
		if f.Delay != 0 {
			fmt.Fprintf(&b, ":%d", f.Delay)
		}
	}
	fmt.Fprintf(&b, "@%d", f.At)
	if f.For != 0 {
		fmt.Fprintf(&b, "+%d", f.For)
	}
	return b.String()
}

// FactorError reports a Bandwidth fault whose factor is outside (0, 1]; NaN
// and the infinities are outside too.
type FactorError struct {
	Factor float64
}

func (e *FactorError) Error() string {
	return fmt.Sprintf("fault: bw: factor must be in (0, 1], got %g", e.Factor)
}

// Validate checks the fault's fields for internal consistency.
func (f Fault) Validate() error {
	switch f.Kind {
	case ExeBU, RegBank:
		if f.Count <= 0 {
			return fmt.Errorf("fault: %s: count must be positive, got %d", f.Kind, f.Count)
		}
	case Bandwidth:
		switch f.Level {
		case "dram", "l2", "vec":
		default:
			return fmt.Errorf("fault: bw: level must be dram, l2 or vec, got %q", f.Level)
		}
		if math.IsNaN(f.Factor) || f.Factor <= 0 || f.Factor > 1 {
			return &FactorError{Factor: f.Factor}
		}
		if f.For == 0 {
			// Permanent bandwidth degradation is fine; nothing to check.
			break
		}
	case XmitLink:
	default:
		return fmt.Errorf("fault: unknown kind %d", f.Kind)
	}
	if f.Core < AnyCore {
		return fmt.Errorf("fault: %s: bad core %d", f.Kind, f.Core)
	}
	if f.Cluster < AnyCluster {
		return fmt.Errorf("fault: %s: bad cluster %d", f.Kind, f.Cluster)
	}
	return nil
}

// ParseSpec parses the -faults CLI grammar: a semicolon- or comma-separated
// list of entries, each "kind[:target...]@at[+for]":
//
//	exebu@50000            one ExeBU fails permanently at cycle 50000
//	exebu:3@50000          three ExeBUs fail permanently
//	exebu:2@50000+20000    two ExeBUs fail transiently for 20000 cycles
//	exebu:cl1:2@50000      two ExeBUs of co-processor cluster 1 fail
//	regs:core1:32@2000     core 1 loses 32 physical registers
//	bw:dram:0.5@1000+9000  DRAM bandwidth halved for 9000 cycles
//	xmit:core0@500+2000    core 0's dispatch link drops transmissions
//	xmit:core0:16@500+2000 same, with a 16-cycle base retry backoff
//	xmit:cl0:core1@500+2000 core 1's fabric link into cluster 0 only
//
// A spec starting with '@' names a JSON file (see ParseJSON).
func ParseSpec(spec string) ([]Fault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var faults []Fault
	for _, entry := range strings.FieldsFunc(spec, func(r rune) bool { return r == ';' || r == ',' }) {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		f, err := parseEntry(entry)
		if err != nil {
			return nil, err
		}
		faults = append(faults, f)
	}
	return faults, nil
}

func parseEntry(entry string) (Fault, error) {
	head, window, ok := strings.Cut(entry, "@")
	if !ok {
		return Fault{}, fmt.Errorf("fault: %q: missing @cycle", entry)
	}
	at, dur, err := parseWindow(window)
	if err != nil {
		return Fault{}, fmt.Errorf("fault: %q: %v", entry, err)
	}
	parts := strings.Split(head, ":")
	f := Fault{Count: 1, Core: AnyCore, Cluster: AnyCluster, At: at, For: dur}
	switch parts[0] {
	case "exebu":
		f.Kind = ExeBU
		args := parts[1:]
		if len(args) > 0 && strings.HasPrefix(args[0], "cl") && !strings.HasPrefix(args[0], "core") {
			if f.Cluster, err = strconv.Atoi(args[0][2:]); err != nil {
				return Fault{}, fmt.Errorf("fault: %q: bad cluster %q", entry, args[0])
			}
			args = args[1:]
		}
		if len(args) > 1 {
			return Fault{}, fmt.Errorf("fault: %q: exebu takes at most one :clN and one :count", entry)
		}
		if len(args) == 1 {
			if f.Count, err = strconv.Atoi(args[0]); err != nil {
				return Fault{}, fmt.Errorf("fault: %q: bad count %q", entry, args[0])
			}
		}
	case "regs":
		f.Kind = RegBank
		args := parts[1:]
		if len(args) > 0 && strings.HasPrefix(args[0], "core") {
			if f.Core, err = strconv.Atoi(args[0][4:]); err != nil {
				return Fault{}, fmt.Errorf("fault: %q: bad core %q", entry, args[0])
			}
			args = args[1:]
		}
		if len(args) != 1 {
			return Fault{}, fmt.Errorf("fault: %q: regs needs a register count", entry)
		}
		if f.Count, err = strconv.Atoi(args[0]); err != nil {
			return Fault{}, fmt.Errorf("fault: %q: bad count %q", entry, args[0])
		}
	case "bw":
		f.Kind = Bandwidth
		if len(parts) != 3 {
			return Fault{}, fmt.Errorf("fault: %q: bw needs :level:factor", entry)
		}
		f.Level = parts[1]
		if f.Factor, err = strconv.ParseFloat(parts[2], 64); err != nil {
			return Fault{}, fmt.Errorf("fault: %q: bad factor %q", entry, parts[2])
		}
	case "xmit":
		f.Kind = XmitLink
		for _, a := range parts[1:] {
			if strings.HasPrefix(a, "core") {
				if f.Core, err = strconv.Atoi(a[4:]); err != nil {
					return Fault{}, fmt.Errorf("fault: %q: bad core %q", entry, a)
				}
				continue
			}
			if strings.HasPrefix(a, "cl") {
				if f.Cluster, err = strconv.Atoi(a[2:]); err != nil {
					return Fault{}, fmt.Errorf("fault: %q: bad cluster %q", entry, a)
				}
				continue
			}
			if f.Delay, err = strconv.ParseUint(a, 10, 64); err != nil {
				return Fault{}, fmt.Errorf("fault: %q: bad delay %q", entry, a)
			}
		}
	default:
		return Fault{}, fmt.Errorf("fault: %q: unknown kind %q (want exebu, regs, bw or xmit)", entry, parts[0])
	}
	if err := f.Validate(); err != nil {
		return Fault{}, err
	}
	return f, nil
}

func parseWindow(s string) (at, dur uint64, err error) {
	atStr, durStr, transient := strings.Cut(s, "+")
	if at, err = strconv.ParseUint(atStr, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad cycle %q", atStr)
	}
	if transient {
		if dur, err = strconv.ParseUint(durStr, 10, 64); err != nil {
			return 0, 0, fmt.Errorf("bad duration %q", durStr)
		}
		if dur == 0 {
			return 0, 0, fmt.Errorf("transient duration must be positive")
		}
	}
	return at, dur, nil
}

// jsonFault mirrors Fault with a string kind, the natural JSON form.
type jsonFault struct {
	Kind    string  `json:"kind"`
	Count   int     `json:"count"`
	Core    *int    `json:"core"`
	Cluster *int    `json:"cluster"`
	Level   string  `json:"level"`
	Factor  float64 `json:"factor"`
	At      uint64  `json:"at"`
	For     uint64  `json:"for"`
	Delay   uint64  `json:"delay"`
}

// ParseJSON parses the JSON file form of a fault spec: a list of objects with
// the fields of Fault, kind spelled as "exebu" | "regs" | "bw" | "xmit".
func ParseJSON(data []byte) ([]Fault, error) {
	var raw []jsonFault
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("fault: bad JSON spec: %v", err)
	}
	var faults []Fault
	for i, j := range raw {
		f := Fault{Count: j.Count, Core: AnyCore, Cluster: AnyCluster, Level: j.Level, Factor: j.Factor, At: j.At, For: j.For, Delay: j.Delay}
		if f.Count == 0 {
			f.Count = 1
		}
		if j.Core != nil {
			f.Core = *j.Core
		}
		if j.Cluster != nil {
			f.Cluster = *j.Cluster
		}
		switch j.Kind {
		case "exebu":
			f.Kind = ExeBU
		case "regs":
			f.Kind = RegBank
		case "bw":
			f.Kind = Bandwidth
		case "xmit":
			f.Kind = XmitLink
		default:
			return nil, fmt.Errorf("fault: entry %d: unknown kind %q", i, j.Kind)
		}
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("fault: entry %d: %w", i, err)
		}
		faults = append(faults, f)
	}
	return faults, nil
}
