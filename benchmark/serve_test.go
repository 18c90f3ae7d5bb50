package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/vipsim/vip/internal/experiments"
)

func TestParseStages(t *testing.T) {
	got, err := parseStages("admit=0.012ms;cache=0.003ms;queue=1.500ms;simulate=80.250ms")
	want := map[string]float64{"admit": 0.012, "cache": 0.003, "queue": 1.5, "simulate": 80.25}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseStages = %v, %v; want %v", got, err, want)
	}
	if got, err := parseStages(""); err != nil || len(got) != 0 {
		t.Errorf("empty header: %v, %v", got, err)
	}
	for _, bad := range []string{"admit", "admit=1.0", "=1ms", "admit=xms", "admit=1ms;"} {
		if _, err := parseStages(bad); err == nil {
			t.Errorf("parseStages(%q) accepted a malformed header", bad)
		}
	}
}

func TestStreamIsSeededAndBalanced(t *testing.T) {
	const window = 20 * time.Second
	keys, stream := genStream(7, window, 12)
	keys2, stream2 := genStream(7, window, 12)
	if !reflect.DeepEqual(keys, keys2) || !reflect.DeepEqual(stream, stream2) {
		t.Fatal("the same seed gave different streams")
	}
	keys3, stream3 := genStream(8, window, 12)
	if reflect.DeepEqual(keys, keys3) || reflect.DeepEqual(stream, stream3) {
		t.Fatal("another seed gave the same stream")
	}

	// The amount of work does not depend on the seed.
	arrivals := 240
	wantLen := arrivals + 2*36 // 15% of arrivals repeat twice
	if len(stream) != wantLen || len(stream3) != wantLen {
		t.Errorf("stream lengths %d and %d, want %d", len(stream), len(stream3), wantLen)
	}
	scens := len(experiments.Scenarios())
	if len(keys) != scens*len(serveSystems) {
		t.Fatalf("%d keys, want %d", len(keys), scens*len(serveSystems))
	}
	seen := map[key]bool{}
	for i, k := range keys {
		if seen[k] || k.Seed != 7 {
			t.Fatalf("key %d %+v repeated or not on the run's seed", i, k)
		}
		seen[k] = true
	}
	for b := 0; b < len(keys); b += scens {
		ids := map[string]bool{}
		for _, k := range keys[b : b+scens] {
			ids[k.Scenario] = true
		}
		if len(ids) != scens {
			t.Errorf("ranks %d..%d hold %d scenarios, want all %d", b, b+scens-1, len(ids), scens)
		}
	}
	prev := time.Duration(-1)
	counts := make([]int, len(keys))
	for _, a := range stream {
		if a.At < prev || a.At < 0 || a.At > window+dupOffsets[len(dupOffsets)-1] {
			t.Fatalf("arrival at %v out of order or outside the window", a.At)
		}
		prev = a.At
		counts[a.Key]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[20] {
		t.Errorf("rank counts %d, %d, %d are not Zipf-ordered", counts[0], counts[1], counts[20])
	}
	// Every key is asked for, so every seed misses on the same keys.
	for k, c := range counts {
		if c == 0 {
			t.Errorf("key %d (%+v) is never asked for", k, keys[k])
		}
	}
}

func TestZipfRanksAreSystematic(t *testing.T) {
	a, b := zipfRanks(1000, 75, 0.1), zipfRanks(1000, 75, 0.9)
	ca, cb := make([]int, 75), make([]int, 75)
	for i := range a {
		ca[a[i]]++
		cb[b[i]]++
	}
	for r := range ca {
		if d := ca[r] - cb[r]; d < -1 || d > 1 {
			t.Errorf("rank %d drawn %d and %d times: the offset moved it by more than one", r, ca[r], cb[r])
		}
	}
}

// fakeClock is a settable clock for the open-loop generator.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = t
}

// The generator sends on schedule even while an earlier request is
// stuck, and times every request from its due time, so generator lag
// counts against latency.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const lag, service = 3 * time.Millisecond, 40 * time.Millisecond
	clk := &fakeClock{t: time.Unix(1000, 0)}
	wait := func(due time.Time) { clk.set(due.Add(lag)) }
	stream := []arrival{{0, 0}, {10 * time.Millisecond, 1}, {20 * time.Millisecond, 2}}
	lastSent := make(chan struct{})
	done := make(chan genRun)
	go func() {
		done <- loadGen{clk.now, wait}.run(stream, func(i int, due, sent time.Time) reply {
			switch i {
			case 0:
				<-lastSent // a stuck request: the next two must still go out
			case 2:
				close(lastSent)
			}
			return reply{due: due, sent: sent, done: sent.Add(service)}
		})
	}()
	var g genRun
	select {
	case g = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the generator waited for a reply before sending the next request")
	}
	for i, r := range g.replies {
		if r.latency() != lag+service || g.lags[i] != ms(lag) {
			t.Errorf("request %d: latency %v, lag %vms; want %v and %vms", i, r.latency(), g.lags[i], lag+service, ms(lag))
		}
	}
	if g.backlog[0] != 0 || g.backlog[2] < 1 {
		t.Errorf("backlog %v: request 0 was outstanding when request 2 went out", g.backlog)
	}
}
