package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"occamy/internal/obs"
)

// CoreView is one core's slice of a View: cumulative counters as of the last
// closed window boundary plus that window's gauges.
type CoreView struct {
	Insts   uint64
	Elems   uint64
	Compute uint64
	Mem     uint64
	Stalls  uint64
	Buckets [obs.NumBuckets]uint64

	BusyLanes   float64 // last window's lane·cycles
	MeanLanes   float64 // last window's mean busy lanes per cycle
	VL          int
	Decision    int
	Headroom    int
	Halted      bool
	Parked      bool
	RetireCount uint64
	RetireP50   float64
	RetireP99   float64
}

// View is a consistent copy of the sampler's exportable state, taken under
// the sampler lock: everything /metrics serves. Counter-valued fields are
// cumulative as of the last closed window; gauges are that window's values.
type View struct {
	Produced     uint64 // windows closed
	WindowCycles uint64 // configured period
	EndCycle     uint64 // last boundary
	Repartitions uint64 // cumulative
	Reconfigures uint64 // cumulative
	ALGranules   int
	UsableBUs    int
	FailedBUs    int
	TotalBUs     int
	Occupancy    float64
	CyclesPerSec float64 // host-side simulation throughput, last window
	EventsTotal  uint64
	Cores        []CoreView

	// Traffic slice: present only when a traffic injector is wired.
	HasTraffic       bool
	Traffic          TrafficWindow // last closed window's slice
	TrafficArrived   uint64        // cumulative, as of the last boundary
	TrafficAdmitted  uint64
	TrafficCompleted uint64
	TrafficCanceled  uint64
}

// View returns the sampler's current exportable state. Before the first
// window closes it reports zeros with the configured core count.
func (s *Sampler) View() View {
	if s == nil {
		return View{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v := View{
		Produced:     s.nwin,
		WindowCycles: s.cfg.Window,
		EndCycle:     s.prev.cycle,
		Repartitions: s.prev.repart,
		Reconfigures: s.prev.reconf,
		EventsTotal:  s.nev,
		Cores:        make([]CoreView, len(s.prev.cores)),
	}
	var last *Window
	if s.nwin > 0 {
		slot := int((s.nwin - 1) % uint64(len(s.wins)))
		last = &s.wins[slot]
		v.ALGranules = last.ALGranules
		v.UsableBUs = last.UsableBUs
		v.FailedBUs = last.FailedBUs
		v.TotalBUs = last.TotalBUs
		v.Occupancy = last.Occupancy
		v.CyclesPerSec = cyclesPerSec(last.Cycles, s.host[slot])
		if last.HasTraffic {
			v.HasTraffic = true
			v.Traffic = last.Traffic
			v.TrafficArrived = s.prev.trafArrived
			v.TrafficAdmitted = s.prev.trafAdmitted
			v.TrafficCompleted = s.prev.trafCompleted
			v.TrafficCanceled = s.prev.trafCanceled
		}
	}
	for c := range v.Cores {
		cv := &v.Cores[c]
		pc := &s.prev.cores[c]
		cv.Insts, cv.Elems = pc.insts, pc.elems
		cv.Compute, cv.Mem, cv.Stalls = pc.compute, pc.mem, pc.stalls
		cv.Buckets = pc.buckets
		if last != nil {
			cw := &last.Cores[c]
			cv.BusyLanes = cw.BusyLanes
			if last.Cycles > 0 {
				cv.MeanLanes = cw.BusyLanes / float64(last.Cycles)
			}
			cv.VL, cv.Decision, cv.Headroom = cw.VL, cw.Decision, cw.Headroom
			cv.Halted, cv.Parked = cw.Halted, cw.Parked
			cv.RetireCount = cw.RetireCount
			cv.RetireP50, cv.RetireP99 = cw.RetireP50, cw.RetireP99
		}
	}
	return v
}

// LabeledView pairs a run label with its View, the unit the multi-run
// OpenMetrics renderer works over.
type LabeledView struct {
	Label string
	View  View
}

// omFamily is one OpenMetrics metric family: declared once, then sampled
// across every run.
type omFamily struct {
	name string // family name (samples append _total for counters)
	kind string // "counter" or "gauge"
	help string
	emit func(w io.Writer, label string, v *View)
}

func b01(b bool) int {
	if b {
		return 1
	}
	return 0
}

var omFamilies = []omFamily{
	{"occamy_sim_cycles", "gauge", "Simulated cycle of the last closed telemetry window.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_sim_cycles{run=%q} %d\n", l, v.EndCycle)
		}},
	{"occamy_windows", "counter", "Telemetry windows closed.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_windows_total{run=%q} %d\n", l, v.Produced)
		}},
	{"occamy_window_cycles", "gauge", "Configured sampling period in cycles.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_window_cycles{run=%q} %d\n", l, v.WindowCycles)
		}},
	{"occamy_host_cycles_per_second", "gauge", "Host-side simulation throughput over the last window.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_host_cycles_per_second{run=%q} %g\n", l, v.CyclesPerSec)
		}},
	{"occamy_repartitions", "counter", "Lane-manager plan computations.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_repartitions_total{run=%q} %d\n", l, v.Repartitions)
		}},
	{"occamy_reconfigures", "counter", "Successful vector-length reconfigurations.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_reconfigures_total{run=%q} %d\n", l, v.Reconfigures)
		}},
	{"occamy_events", "counter", "Telemetry events recorded.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_events_total{run=%q} %d\n", l, v.EventsTotal)
		}},
	{"occamy_al_granules", "gauge", "Allocatable lanes (AL) in granules.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_al_granules{run=%q} %d\n", l, v.ALGranules)
		}},
	{"occamy_exebus_usable", "gauge", "Usable execution bundles.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_exebus_usable{run=%q} %d\n", l, v.UsableBUs)
		}},
	{"occamy_exebus_failed", "gauge", "Failed execution bundles.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_exebus_failed{run=%q} %d\n", l, v.FailedBUs)
		}},
	{"occamy_array_occupancy", "gauge", "Whole-array busy-lane fraction over the last window.",
		func(w io.Writer, l string, v *View) {
			fmt.Fprintf(w, "occamy_array_occupancy{run=%q} %g\n", l, v.Occupancy)
		}},
	{"occamy_core_insts", "counter", "Scalar instructions retired per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_insts_total{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].Insts)
			}
		}},
	{"occamy_core_elems", "counter", "Vector elements completed per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_elems_total{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].Elems)
			}
		}},
	{"occamy_core_simd_compute", "counter", "SIMD compute micro-ops issued per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_simd_compute_total{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].Compute)
			}
		}},
	{"occamy_core_simd_mem", "counter", "SIMD memory micro-ops issued per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_simd_mem_total{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].Mem)
			}
		}},
	{"occamy_core_rename_stalls", "counter", "Rename-stall cycles per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_rename_stalls_total{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].Stalls)
			}
		}},
	{"occamy_core_cycles", "counter", "Top-down cycle attribution per core and bucket.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				for b := 0; b < obs.NumBuckets; b++ {
					fmt.Fprintf(w, "occamy_core_cycles_total{run=%q,core=\"%d\",bucket=%q} %d\n",
						l, c, obs.Bucket(b).String(), v.Cores[c].Buckets[b])
				}
			}
		}},
	{"occamy_core_busy_lanes", "gauge", "Mean busy lanes per cycle over the last window.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_busy_lanes{run=%q,core=\"%d\"} %g\n", l, c, v.Cores[c].MeanLanes)
			}
		}},
	{"occamy_core_vl_granules", "gauge", "Configured vector length per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_vl_granules{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].VL)
			}
		}},
	{"occamy_core_fairness_headroom_granules", "gauge", "Granules revocable above the fairness floor.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_fairness_headroom_granules{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].Headroom)
			}
		}},
	{"occamy_core_retire_latency_cycles", "gauge", "Windowed issue-to-retire latency quantiles per core.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_retire_latency_cycles{run=%q,core=\"%d\",quantile=\"0.5\"} %g\n", l, c, v.Cores[c].RetireP50)
				fmt.Fprintf(w, "occamy_core_retire_latency_cycles{run=%q,core=\"%d\",quantile=\"0.99\"} %g\n", l, c, v.Cores[c].RetireP99)
			}
		}},
	{"occamy_core_retired", "counter", "Co-processor instructions retired per core (windowless histogram count is windowed; this is the last window's).",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_retired_total{run=%q,core=\"%d\"} %d\n", l, c, v.Cores[c].RetireCount)
			}
		}},
	{"occamy_core_halted", "gauge", "1 when the scalar core has halted.",
		func(w io.Writer, l string, v *View) {
			for c := range v.Cores {
				fmt.Fprintf(w, "occamy_core_halted{run=%q,core=\"%d\"} %d\n", l, c, b01(v.Cores[c].Halted))
			}
		}},
}

// RenderOpenMetrics writes the runs' views in OpenMetrics text format: every
// family declared exactly once, sampled per run, terminated by "# EOF".
func RenderOpenMetrics(w io.Writer, runs []LabeledView) error {
	bw := bufio.NewWriter(w)
	for i := range omFamilies {
		f := &omFamilies[i]
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for r := range runs {
			f.emit(bw, runs[r].Label, &runs[r].View)
		}
	}
	fmt.Fprint(bw, "# EOF\n")
	return bw.Flush()
}

// WriteOpenMetrics renders this sampler alone under the given run label.
func (s *Sampler) WriteOpenMetrics(w io.Writer, label string) error {
	return RenderOpenMetrics(w, []LabeledView{{Label: label, View: s.View()}})
}

// ValidateOpenMetrics parses OpenMetrics text and checks the contract the
// renderer promises: a TYPE declaration before any sample of its family,
// counter samples named <family>_total, parseable float values, balanced
// label quoting, and a final "# EOF" line. Used by the golden tests and by
// `occamy-trace -check-openmetrics` in CI.
func ValidateOpenMetrics(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	types := map[string]string{}
	sawEOF := false
	samples := 0
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if sawEOF && strings.TrimSpace(line) != "" {
			return fmt.Errorf("openmetrics: line %d: content after # EOF", lineNo)
		}
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "EOF" {
				sawEOF = true
				continue
			}
			if len(fields) < 3 {
				return fmt.Errorf("openmetrics: line %d: malformed comment %q", lineNo, line)
			}
			switch fields[1] {
			case "TYPE":
				name, kind := fields[2], strings.Join(fields[3:], " ")
				if _, dup := types[name]; dup {
					return fmt.Errorf("openmetrics: line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch kind {
				case "counter", "gauge", "histogram", "summary", "info", "stateset", "unknown":
				default:
					return fmt.Errorf("openmetrics: line %d: bad type %q for %s", lineNo, kind, name)
				}
				types[name] = kind
			case "HELP", "UNIT":
				// Free-form.
			default:
				return fmt.Errorf("openmetrics: line %d: unknown comment keyword %q", lineNo, fields[1])
			}
			continue
		}
		name, value, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("openmetrics: line %d: %w", lineNo, err)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			return fmt.Errorf("openmetrics: line %d: bad value %q", lineNo, value)
		}
		family := name
		if strings.HasSuffix(name, "_total") {
			family = strings.TrimSuffix(name, "_total")
		}
		kind, ok := types[family]
		if !ok {
			kind, ok = types[name]
			family = name
		}
		if !ok {
			return fmt.Errorf("openmetrics: line %d: sample %s before its TYPE declaration", lineNo, name)
		}
		if kind == "counter" && !strings.HasSuffix(name, "_total") {
			return fmt.Errorf("openmetrics: line %d: counter sample %s must end in _total", lineNo, name)
		}
		samples++
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("openmetrics: read: %w", err)
	}
	if !sawEOF {
		return fmt.Errorf("openmetrics: missing # EOF terminator")
	}
	if samples == 0 {
		return fmt.Errorf("openmetrics: no samples")
	}
	return nil
}

// splitSample splits `name{labels} value` (labels optional) into name and
// value, checking label-set quoting is balanced.
func splitSample(line string) (name, value string, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		name = line[:i]
		end := -1
		inQuote := false
		for j := i + 1; j < len(line); j++ {
			switch line[j] {
			case '\\':
				if inQuote {
					j++
				}
			case '"':
				inQuote = !inQuote
			case '}':
				if !inQuote {
					end = j
				}
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return "", "", fmt.Errorf("unterminated label set in %q", line)
		}
		rest = strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return "", "", fmt.Errorf("malformed sample %q", line)
		}
		name, rest = fields[0], strings.Join(fields[1:], " ")
	}
	if name == "" {
		return "", "", fmt.Errorf("empty metric name in %q", line)
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return "", "", fmt.Errorf("missing value in %q", line)
	}
	return name, fields[0], nil
}
