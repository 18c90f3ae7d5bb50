package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/vipsim/vip/internal/sim"
)

// faultSweepDigests pins the SHA-256 of the JSON of a 40 ms fault sweep,
// keyed by the engine revision that produced it, as vip's goldenDigests
// are. The sweep is the only caller of the experiments-side fault
// lowering (base rate, fault seed, recovery arm), so a refactor of that
// lowering must leave the digest of the current EngineVersion unchanged.
var faultSweepDigests = map[string]string{
	"vip-engine/1": "4562fac3ff65dd2bcdd10dfcb1504be9bce5e364efe66be3f980508bfe9666ae",
}

// TestFaultSweepGolden pins the fault sweep's bytes across commits and
// checks that the digest covers what it claims to: every arm injects
// faults at every non-zero rate, both recovery-on arms retry frames at
// the top rate, and the recovery-off arm never retries.
func TestFaultSweepGolden(t *testing.T) {
	f, err := RunFaultSweep(40 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Arms) != 3 {
		t.Fatalf("got %d arms, want 3", len(f.Arms))
	}
	for _, a := range f.Arms {
		for _, p := range a.Points {
			if p.Rate > 0 && p.Injected == 0 {
				t.Errorf("%s recovery=%t: no fault injected at rate %g", a.Scheme, a.Recovery, p.Rate)
			}
			if !a.Recovery && p.FrameRetries > 0 {
				t.Errorf("%s recovery off: %d retries at rate %g", a.Scheme, p.FrameRetries, p.Rate)
			}
		}
		if top := a.Points[len(a.Points)-1]; a.Recovery && top.FrameRetries == 0 {
			t.Errorf("%s recovery on: no retry at rate %g", a.Scheme, top.Rate)
		}
	}
	b, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	got := hex.EncodeToString(sum[:])
	want, ok := faultSweepDigests[sim.EngineVersion]
	if !ok {
		t.Fatalf("no fault-sweep digest recorded for %s; record %q", sim.EngineVersion, got)
	}
	if got != want {
		t.Errorf("fault-sweep digest of %s changed: got %s, pinned %s", sim.EngineVersion, got, want)
	}
}
