package bench

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// goldenJSON maps GoldenKey values to the digests the workloads must
// produce. Regenerate it with `go test -run TestGolden -update` in this
// directory after a change that is meant to move simulated results.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// GoldenSeeds are the seeds golden digests are recorded for.
var GoldenSeeds = []uint64{1, 2, 3}

// GoldenKey names a workload's digest at a seed and size.
func GoldenKey(workload string, seed uint64, quick bool) string {
	size := "full"
	if quick {
		size = "quick"
	}
	return fmt.Sprintf("%s/%s/seed%d", workload, size, seed)
}

// Golden returns the recorded digest for key, if there is one.
func Golden(key string) (string, bool) {
	var all map[string]string
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		panic(fmt.Sprintf("bench: testdata/golden.json: %v", err))
	}
	d, ok := all[key]
	return d, ok
}
