package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"occamy"
	"occamy/internal/htmlreport"
)

// elastic runs the motivating pair on Occamy at a quarter scale.
func elastic(t *testing.T) *occamy.Report {
	t.Helper()
	cfg := occamy.DefaultConfig(occamy.Elastic)
	cfg.Scale, cfg.Seed = 0.25, 7
	rep, err := occamy.Run(cfg, occamy.MotivatingPair())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// render returns the page addSections makes of rep.
func render(t *testing.T, rep *occamy.Report) string {
	t.Helper()
	page := htmlreport.New("test")
	addSections(page, rep)
	var buf bytes.Buffer
	if err := page.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAddSectionsElastic renders a reconfiguring run: the page must contain
// the busy-lane chart, the staircase and the event log.
func TestAddSectionsElastic(t *testing.T) {
	rep := elastic(t)
	html := render(t, rep)
	for _, want := range []string{
		"Busy SIMD lanes over time",
		"Allocated SIMD lanes",
		"reconfigure",
		rep.Cores[0].Workload,
		"<svg",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

// TestAddSectionsStatic renders a run with no reconfigurations: the
// staircase is replaced by a note and nothing panics.
func TestAddSectionsStatic(t *testing.T) {
	rep := elastic(t)
	rep.LaneEvents = nil // as a Private/VLS run's log would be
	if !strings.Contains(render(t, rep), "No reconfiguration events") {
		t.Fatal("static run note missing")
	}
}

// TestEventLogElision pins the head/tail elision of long event logs.
func TestEventLogElision(t *testing.T) {
	events := elastic(t).LaneEvents
	for len(events) < 300 {
		events = append(events, events...)
	}
	logText := eventLog(events, 200)
	if !strings.Contains(logText, "events elided") {
		t.Fatal("long log not elided")
	}
	if lines := strings.Count(logText, "\n"); lines > 203 {
		t.Fatalf("elided log still has %d lines", lines)
	}
	if strings.Contains(eventLog(events, len(events)+1), "elided") {
		t.Fatal("short log elided")
	}
}

// TestPhaseTableRows pins that every phase and a per-core total appear.
func TestPhaseTableRows(t *testing.T) {
	rep := elastic(t)
	table := phaseTable(rep)
	wantRows := 1 // header
	for _, c := range rep.Cores {
		wantRows += len(c.PhaseCycles) + 1
	}
	if got := strings.Count(table, "\n"); got != wantRows {
		t.Fatalf("table rows = %d, want %d\n%s", got, wantRows, table)
	}
	if !strings.Contains(table, "all") {
		t.Fatal("per-core total row missing")
	}
}

// TestAllocatedLanesStaircase replays Occamy's lane log: the compute core
// must at some point hold more than a private half (16 lanes) — the elastic
// gain the staircase shows — and every step is a whole number of granules.
func TestAllocatedLanesStaircase(t *testing.T) {
	stairs := htmlreport.Staircase(elastic(t).LaneEvents, 2)
	if len(stairs) != 2 {
		t.Fatal("want a staircase per core")
	}
	peak := 0.0
	for _, s := range stairs[1] {
		peak = max(peak, s.Y)
	}
	if peak <= 16 {
		t.Fatalf("compute core never exceeded the private split: peak %g", peak)
	}
	for _, ss := range stairs {
		for _, s := range ss {
			if int(s.Y)%4 != 0 || s.Y != float64(int(s.Y)) {
				t.Fatalf("lane counts must be whole granules, got %g", s.Y)
			}
		}
	}
}

// TestHTMLPage renders `occamy-sim -arch all -scale 0.25 -html` and holds
// each architecture's section to the Report of the same run: the phase
// table to PhaseCycles and PhaseIssueRates, the event log to LaneEvents
// with their decisions, Occamy's staircase to its reconfigure events, and
// the static architectures to the no-reconfiguration note.
func TestHTMLPage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "page.html")
	stdout, stderr, code := sim(t, "-arch", "all", "-scale", "0.25", "-html", path)
	if code != 0 || !strings.Contains(stdout, "html page written to "+path) {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sections := strings.Split(string(data), "<h2>")[1:]
	kinds := occamy.Architectures()
	if len(sections) != len(kinds) {
		t.Fatalf("page has %d sections, want one per architecture (%d)", len(sections), len(kinds))
	}
	for i, kind := range kinds {
		cfg := occamy.DefaultConfig(kind)
		cfg.Scale = 0.25
		rep, err := occamy.Run(cfg, occamy.PairByName("spec/WL20", "spec/WL17"))
		if err != nil {
			t.Fatal(err)
		}
		sec := sections[i]
		if want := fmt.Sprintf("%s on %s</h2>", rep.Schedule, kind); !strings.HasPrefix(sec, want) {
			t.Fatalf("section %d starts %.60q, want %q", i, sec, want)
		}
		names := make([]string, len(rep.Cores))
		for c, core := range rep.Cores {
			names[c] = fmt.Sprintf("core%d %s", c, core.Workload)
			for p, rate := range core.PhaseIssueRates {
				row := fmt.Sprintf("%-6d %-24s %-7d %12d %10.2f\n", c, core.Workload, p, core.PhaseCycles[p], rate)
				if !strings.Contains(sec, row) {
					t.Errorf("%s: phase table lacks %q", kind, row)
				}
			}
		}
		if len(rep.LaneEvents) > 200 {
			t.Fatalf("%s: %d lane events; the check below expects an unelided log", kind, len(rep.LaneEvents))
		}
		stairs := make([][]htmlreport.Step, len(rep.Cores))
		peak := 0.0
		for c := range stairs {
			stairs[c] = []htmlreport.Step{{}}
		}
		for _, e := range rep.LaneEvents {
			if len(e.Decisions) != len(rep.Cores) {
				t.Errorf("%s: event %+v does not carry one decision per core", kind, e)
			}
			line := fmt.Sprintf("%10d %-5d %-14s %4d  %v\n", e.Cycle, e.Core, e.Kind, e.VL, e.Decisions)
			if !strings.Contains(sec, line) {
				t.Errorf("%s: event log lacks %q", kind, line)
			}
			if e.Kind == "reconfigure" {
				stairs[e.Core] = append(stairs[e.Core], htmlreport.Step{X: float64(e.Cycle), Y: float64(4 * e.VL)})
				peak = max(peak, float64(4*e.VL))
			}
		}
		note := strings.Contains(sec, "No reconfiguration events")
		if kind != occamy.Elastic {
			if !note || rep.Reconfigures != 0 {
				t.Errorf("%s: %d reconfigurations, note shown %v; want none and the note", kind, rep.Reconfigures, note)
			}
			continue
		}
		chart := htmlreport.StepChart("Allocated SIMD lanes", names, stairs, float64(rep.Cycles), peak, "cycles")
		if note || rep.Reconfigures == 0 || !strings.Contains(sec, chart) {
			t.Errorf("Occamy: %d reconfigurations, note shown %v; the staircase does not step at exactly the reconfigure events",
				rep.Reconfigures, note)
		}
	}
}
