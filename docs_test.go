package occamy

import (
	"os"
	"strings"
	"testing"
)

// TestExperimentsFigure10MatchesGolden keeps EXPERIMENTS.md's Figure 10
// table in step with the report: the Core1 and Core0 GM rows' FTS, VLS and
// Occamy speedups must be the c1 and c0 columns of the GM row under
// "Figure 10" in testdata/occamy-bench.golden.
func TestExperimentsFigure10MatchesGolden(t *testing.T) {
	doc := linesFrom(t, "EXPERIMENTS.md", "## Figure 10")
	golden := linesFrom(t, "testdata/occamy-bench.golden", "Figure 10:")
	// The golden's GM row: FTS c0, FTS c1, VLS c0, VLS c1, Occamy c0, Occamy c1.
	gm := rowFields(t, golden, "GM ", " ")
	if len(gm) != 7 {
		t.Fatalf("golden GM row has %d fields, want 7: %q", len(gm), gm)
	}
	for core, col := range map[string]int{"Core0": 1, "Core1": 2} {
		cells := rowFields(t, doc, "| "+core+" GM |", "|")
		if len(cells) < 4 {
			t.Fatalf("EXPERIMENTS.md %s GM row has %d cells: %q", core, len(cells), cells)
		}
		for i, arch := range []string{"FTS", "VLS", "Occamy"} {
			got := strings.NewReplacer("*", "", "×", "x").Replace(cells[1+i])
			if want := gm[col+2*i]; got != want {
				t.Errorf("EXPERIMENTS.md %s GM %s = %s, golden has %s", core, arch, got, want)
			}
		}
	}
}

// TestExperimentsMeasuredRowsMatchGolden keeps EXPERIMENTS.md's Figure 11
// and Figure 13 tables in step with the report: each "measured" row's
// Private, FTS, VLS and Occamy cells must be the golden's summary row under
// that figure (GM for Figure 11, Mean for Figure 13).
func TestExperimentsMeasuredRowsMatchGolden(t *testing.T) {
	for _, fig := range []struct{ doc, docRow, golden, goldenRow string }{
		{"## Figure 11", "| measured GM |", "Figure 11:", "GM "},
		{"## Figure 13", "| measured |", "Figure 13:", "Mean "},
	} {
		want := rowFields(t, linesFrom(t, "testdata/occamy-bench.golden", fig.golden), fig.goldenRow, " ")
		got := rowFields(t, linesFrom(t, "EXPERIMENTS.md", fig.doc), fig.docRow, "|")
		if len(want) != 5 || len(got) != 5 {
			t.Fatalf("%s: golden row %q, EXPERIMENTS.md row %q; want an architecture per column", fig.golden, want, got)
		}
		for i, arch := range []string{"Private", "FTS", "VLS", "Occamy"} {
			if cell := strings.ReplaceAll(got[1+i], "*", ""); cell != want[1+i] {
				t.Errorf("EXPERIMENTS.md %s %s = %s, golden has %s", fig.doc[3:], arch, cell, want[1+i])
			}
		}
	}
}

// linesFrom returns file's lines from the first one starting with heading.
func linesFrom(t *testing.T, file, heading string) []string {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, heading) {
			return lines[i:]
		}
	}
	t.Fatalf("%s: no line starts with %q", file, heading)
	return nil
}

// rowFields finds the first line starting with prefix and returns its
// fields, split on sep and trimmed, empty fields dropped.
func rowFields(t *testing.T, lines []string, prefix, sep string) []string {
	t.Helper()
	for _, l := range lines {
		if !strings.HasPrefix(l, prefix) {
			continue
		}
		var fields []string
		for _, f := range strings.Split(l, sep) {
			if f = strings.TrimSpace(f); f != "" {
				fields = append(fields, f)
			}
		}
		return fields
	}
	t.Fatalf("no row starts with %q", prefix)
	return nil
}
