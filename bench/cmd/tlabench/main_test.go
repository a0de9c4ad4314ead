package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tlacache/bench"
)

// TestMain lets the test binary stand in for tlabench's child
// processes: run spawns os.Executable, which here is this binary.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(child(mode, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// TestHarness runs every workload at quick size through the child
// processes, untraced and traced, and checks the summary line.
func TestHarness(t *testing.T) {
	for _, trace := range []string{"0", "1"} {
		dir := t.TempDir()
		var out bytes.Buffer
		if code := run([]string{"-workload", "all", "-quick", "-seconds", "0", "-trace", trace}, &out, dir); code != 0 {
			t.Fatalf("-trace %s: exit %d\n%s", trace, code, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var sum summary
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("-trace %s: last line: %v", trace, err)
		}
		want := bench.EndToEnd
		if trace == "1" {
			want = bench.PerLayer
		}
		if !sum.Correct || sum.Failed != 0 || len(sum.Metrics) != len(want)*len(bench.Workloads()) {
			t.Errorf("-trace %s: summary %+v", trace, sum)
		}
		for _, w := range bench.Workloads() {
			for _, m := range want {
				if _, ok := sum.Metrics[w.Name+"/"+m]; !ok {
					t.Errorf("-trace %s: no %s/%s", trace, w.Name, m)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "spans-"+w.Name+".jsonl")); (err == nil) != (trace == "1") {
				t.Errorf("-trace %s: spans file for %s: %v", trace, w.Name, err)
			}
		}
	}
}

func TestFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-trace", "2"},
		{"-repeat", "0"},
		{"extra"},
	} {
		if code := run(args, &bytes.Buffer{}, t.TempDir()); code == 0 {
			t.Errorf("%q: exit 0", args)
		}
	}
}
