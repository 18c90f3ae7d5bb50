package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/vip"
)

// goldenJSON pins the digests of the benchmark's simulated outputs. A
// model change that alters them must bump vip.EngineVersion or re-pin
// the file; see README.md.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	EngineVersion string            `json:"engine_version"`
	Digests       map[string]string `json:"digests"`
}

func loadGolden() (golden, error) {
	var g golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// goldenKey names one pinned output: the workload, its simulated
// duration and the seed ("paper" for the fixed-seed sweep).
func goldenKey(workload string, dur sim.Time, seed string) string {
	return fmt.Sprintf("%s/%gms/%s", workload, dur.Milliseconds(), seed)
}

// check compares a digest with the pinned one. It returns the status
// printed beside the digest, and false only on a mismatch: outputs of
// another engine version, or of a seed nobody pinned, are checked for
// identity across repetitions and against vip.Simulate instead.
func (g golden) check(key, got string) (string, bool) {
	if g.EngineVersion != vip.EngineVersion {
		return "unpinned (golden.json is for " + g.EngineVersion + ")", true
	}
	want, ok := g.Digests[key]
	switch {
	case !ok:
		return "unpinned", true
	case want != got:
		return "MISMATCH, pinned " + want, false
	}
	return "pinned", true
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
