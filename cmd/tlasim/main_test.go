package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain runs the command itself when the test binary is started with
// TLASIM_MAIN set, so tests drive its real flags and output.
func TestMain(m *testing.M) {
	if os.Getenv("TLASIM_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// tlasim runs the command with args and returns its stdout.
func tlasim(t *testing.T, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TLASIM_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("tlasim %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out
}

// A single-policy -json run prints the result's fields at the top
// level; with -interval its telemetry summary sits beside them.
func TestSinglePolicyJSONCarriesTelemetry(t *testing.T) {
	args := []string{"-mix", "sje,lib", "-policy", "eci", "-n", "20000", "-w", "20000", "-json"}
	sampled := append(args[:len(args):len(args)],
		"-interval", "10000", "-telemetry-out", filepath.Join(t.TempDir(), "intervals"))
	for _, tc := range []struct {
		args      []string
		telemetry bool
	}{{args, false}, {sampled, true}} {
		var got map[string]json.RawMessage
		if err := json.Unmarshal(tlasim(t, tc.args...), &got); err != nil {
			t.Fatal(err)
		}
		if _, ok := got["Throughput"]; !ok {
			t.Errorf("%v: no top-level Throughput", tc.args)
		}
		if _, ok := got["telemetry"]; ok != tc.telemetry {
			t.Errorf("%v: telemetry present = %v, want %v", tc.args, ok, tc.telemetry)
		}
	}
}
