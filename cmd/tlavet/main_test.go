package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlacache/internal/analysis"
)

// writeBadModule lays out a throwaway module whose single metrics
// package carries two floatcmp findings, at lines 5 and 8.
func writeBadModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module badmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "internal", "metrics", "metrics.go"), `package metrics

// Same compares accumulated results exactly, which floatcmp forbids.
func Same(a, b float64) bool {
	if a == b {
		return true
	}
	return a != 0
}
`)
	return dir
}

// writeFile creates path, and its directory, with the given content.
func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunFlagsFindings drives the real CLI entry point against a bad
// module: exit status 1, and the JSON findings carry the expected
// analyzer, file, and line.
func TestRunFlagsFindings(t *testing.T) {
	dir := writeBadModule(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("decoding findings: %v\n%s", err, stdout.String())
	}
	if len(diags) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(diags), diags)
	}
	want := filepath.Join("internal", "metrics", "metrics.go")
	eq := diags[0]
	if eq.Analyzer != "floatcmp" || eq.File != want || eq.Line != 5 {
		t.Errorf("finding 0 = %s, want floatcmp at %s:5", eq, want)
	}
	if !strings.Contains(eq.Message, "floating-point == comparison") {
		t.Errorf("finding 0 message %q does not name the == comparison", eq.Message)
	}
	neq := diags[1]
	if neq.Analyzer != "floatcmp" || neq.File != want || neq.Line != 8 {
		t.Errorf("finding 1 = %s, want floatcmp at %s:8", neq, want)
	}
}

// TestRunCleanModule checks exit 0 and an empty JSON array for a module
// with nothing to report.
func TestRunCleanModule(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module okmod\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "ok.go"), "package okmod\n\n// V is fine.\nvar V = 1\n")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-json", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Fatalf("stdout = %q, want empty JSON array", got)
	}
}

// TestRunOutFile checks the -out sidecar used by CI to publish findings.
func TestRunOutFile(t *testing.T) {
	dir := writeBadModule(t)
	outPath := filepath.Join(t.TempDir(), "findings.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-out", outPath, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("reading -out file: %v", err)
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("decoding -out file: %v", err)
	}
	if len(diags) != 2 {
		t.Fatalf("-out holds %d findings, want 2", len(diags))
	}
	// The text rendering on stdout must agree with the sidecar.
	if !strings.Contains(stdout.String(), "metrics.go:5:") {
		t.Errorf("stdout %q lacks the metrics.go:5 diagnostic", stdout.String())
	}
}

// TestRunUnknownCheck pins the usage-error exit code.
func TestRunUnknownCheck(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-checks", "nosuch", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
}

// TestRunList checks that -list names every registered check, and only
// those, with its analysis scope.
func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	out := stdout.String()
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "floatcmp lockdiscipline exhaustive"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names %q, want %q", got, want)
	}
	for _, a := range analysis.Analyzers() {
		if a.Doc == "" {
			t.Errorf("check %q registers with an empty Doc", a.Name)
		}
		if a.Help == "" {
			t.Errorf("check %q registers with no Help text (required for SARIF rule metadata)", a.Name)
		}
	}
	if !strings.Contains(out, "[module]") {
		t.Errorf("-list does not mark any module check:\n%s", out)
	}
	if !strings.Contains(out, "[package]") {
		t.Errorf("-list does not mark any per-package check:\n%s", out)
	}
}

// TestRunSARIF checks the -sarif rendering: a valid SARIF 2.1.0 log on
// stdout with one result per finding and the rule table naming every
// registered check.
func TestRunSARIF(t *testing.T) {
	dir := writeBadModule(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "-sarif", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("decoding SARIF: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("SARIF version %q with %d runs, want 2.1.0 with 1", log.Version, len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "tlavet" {
		t.Errorf("driver name %q, want tlavet", r.Tool.Driver.Name)
	}
	if len(r.Tool.Driver.Rules) != len(analysis.Analyzers()) {
		t.Errorf("rule table has %d rules, want %d", len(r.Tool.Driver.Rules), len(analysis.Analyzers()))
	}
	if len(r.Results) != 2 {
		t.Fatalf("SARIF holds %d results, want 2", len(r.Results))
	}
	first := r.Results[0]
	if first.RuleID != "floatcmp" {
		t.Errorf("result 0 ruleId %q, want floatcmp", first.RuleID)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/metrics/metrics.go" || loc.Region.StartLine != 5 {
		t.Errorf("result 0 at %s:%d, want internal/metrics/metrics.go:5",
			loc.ArtifactLocation.URI, loc.Region.StartLine)
	}
	// -json and -sarif together is a usage error.
	if code := run([]string{"-C", dir, "-json", "-sarif", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("-json -sarif run = %d, want 2", code)
	}
}

// TestRunFailStaleAllows drives the stale-suppression detector: an
// allow directive that suppresses a real finding is fine, and once the
// finding is gone, or when the directive names no registered check, the
// directive itself fails an unfiltered run.
func TestRunFailStaleAllows(t *testing.T) {
	dir := writeBadModule(t)
	metrics := filepath.Join(dir, "internal", "metrics", "metrics.go")
	writeFile(t, metrics, `package metrics

// Same compares accumulated results exactly, with both findings waived.
func Same(a, b float64) bool {
	//tlavet:allow floatcmp both operands are copies of one stored value
	if a == b {
		return true
	}
	return a != 0 //tlavet:allow floatcmp zero is an exact sentinel here
}
`)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("suppressed run = %d, want 0 (stdout: %s stderr: %s)", code, stdout.String(), stderr.String())
	}

	// Fix the comparisons: the remaining directive now suppresses
	// nothing and must be reported as stale.
	writeFile(t, metrics, `package metrics

// Same is now beyond reproach.
func Same(a, b float64) bool {
	//tlavet:allow floatcmp both operands are copies of one stored value
	return a < b
}
`)
	stdout.Reset()
	if code := run([]string{"-C", dir, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("stale run = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "metrics.go:5:0: floatcmp: stale //tlavet:allow floatcmp") {
		t.Errorf("stdout %q does not report the stale directive", stdout.String())
	}
	// A filtered run cannot prove a directive unused, and neither can a
	// run that skipped the directive's check.
	for _, args := range [][]string{{"./internal/metrics"}, {"-checks", "lockdiscipline", "./..."}} {
		stdout.Reset()
		if code := run(append([]string{"-C", dir}, args...), &stdout, &stderr); code != 0 {
			t.Fatalf("run %v = %d, want 0 (stdout: %s)", args, code, stdout.String())
		}
	}

	// A directive naming a retired or misspelt check can never suppress
	// anything: it is stale on every unfiltered run, whatever ran.
	writeFile(t, metrics, `package metrics

// Same is beyond reproach.
func Same(a, b float64) bool {
	//tlavet:allow panicmsg left behind by a retired check
	return a < b
}
`)
	stdout.Reset()
	if code := run([]string{"-C", dir, "-checks", "lockdiscipline", "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown-check run = %d, want 1 (stdout: %s)", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "stale //tlavet:allow panicmsg: no registered check has that name") {
		t.Errorf("stdout %q does not report the unknown-check directive", stdout.String())
	}
}

// TestPatternFilter pins package-pattern matching: a pattern selects the
// named package and its subtree, never a sibling that merely shares a
// prefix, and the module-wide forms select everything (a nil filter).
func TestPatternFilter(t *testing.T) {
	pkgs := []string{"m", "m/cmd/tla", "m/cmd/tla/sub", "m/cmd/tlasim", "m/internal/sim", "m/internal/simx"}
	for _, tc := range []struct {
		patterns []string
		want     string // the matched packages, or "all" for a nil filter
	}{
		{nil, "all"},
		{[]string{"./..."}, "all"},
		{[]string{"..."}, "all"},
		{[]string{"all"}, "all"},
		{[]string{"."}, "all"},
		{[]string{"m/..."}, "all"},
		{[]string{"./cmd/tla"}, "m/cmd/tla m/cmd/tla/sub"},
		{[]string{"./cmd/tla/..."}, "m/cmd/tla m/cmd/tla/sub"},
		{[]string{"cmd/tlasim", "./internal/sim"}, "m/cmd/tlasim m/internal/sim"},
		{[]string{"m/internal/sim"}, "m/internal/sim"},
		{[]string{"./internl/..."}, ""},
	} {
		filter := patternFilter("m", tc.patterns)
		got := "all"
		if filter != nil {
			var matched []string
			for _, p := range pkgs {
				if filter(p) {
					matched = append(matched, p)
				}
			}
			got = strings.Join(matched, " ")
		}
		if got != tc.want {
			t.Errorf("patternFilter(%q) matches %q, want %q", tc.patterns, got, tc.want)
		}
	}
}

// TestRunNoMatchingPackage pins the usage error for a pattern that
// selects nothing: exiting 0 there would pass a gate that checked
// nothing.
func TestRunNoMatchingPackage(t *testing.T) {
	dir := writeBadModule(t)
	for _, pattern := range []string{"./internl/...", "./internal/metric"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-C", dir, pattern}, &stdout, &stderr); code != 2 {
			t.Fatalf("run %s = %d, want 2 (stdout: %s)", pattern, code, stdout.String())
		}
		if !strings.Contains(stderr.String(), "no package matches "+pattern) {
			t.Errorf("stderr %q does not name the unmatched pattern", stderr.String())
		}
	}
}
