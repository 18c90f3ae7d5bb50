package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/vipsim/vip/internal/experiments"
	"github.com/vipsim/vip/internal/serve"
	"github.com/vipsim/vip/internal/sim"
	"github.com/vipsim/vip/vip"
)

// The serve-mix traffic: Zipf-popular keys arriving as a Poisson stream,
// with a share of arrivals repeated at once so some requests coalesce
// onto a run in flight.
const (
	zipfS      = 1.1
	dupShare   = 0.15
	sloLatency = time.Second
	// Validity limit of an open-loop run: a late generator means the
	// host, not the server, set the latencies. The generator shares the
	// server's GOMAXPROCS, and while every P runs a simulation a woken
	// goroutine can wait for the scheduler's 10 ms preemption, so the
	// limit is that quantum. At 5 ms, runs on the host's slow stretches
	// read 4.9 ms with every other sign of a healthy run.
	maxLagP90 = 10 * time.Millisecond
)

// dupOffsets are when the duplicates of a duplicated arrival follow it.
var dupOffsets = []time.Duration{2 * time.Millisecond, 4 * time.Millisecond}

// serveSystems are the vipserve names of the designs serve-mix asks
// for: the two ends of the paper's comparison, not all five designs.
// With 15 scenarios each that is 30 keys, and as every key misses once,
// 30 engine runs in a 20 s stream, 1.5 a second. The generator shares
// the process, so while every worker simulates it waits for the Go
// scheduler; more engine runs made it later on the 2-vCPU host's slow
// stretches. Its p90 lag reached 14 ms with all five designs (75 keys,
// 3.75 runs a second), 5.6 ms with three (45 keys) and 4.9 ms with two,
// against maxLagP90's 10 ms.
var serveSystems = []string{"baseline", "vip"}

// key is one distinct scenario a serve-mix request can ask for.
type key struct {
	Scenario string // A1..A7 or W1..W8
	System   string
	Seed     uint64
}

// arrival is one request of the stream.
type arrival struct {
	At  time.Duration // due time, from the start of the run
	Key int           // rank of the key in the popularity order
}

// genStream builds the request stream of one run from the seed: the 30
// keys (15 scenarios × 2 systems, simulated with the run's seed), their
// popularity ranks, and rate × window arrivals.
//
// The seed decides which key holds which rank, which arrivals ask for
// which rank, and when. It does not decide how much work the stream
// holds, so that the run-to-run spread measures the server rather than
// the draw: every 15 consecutive ranks hold each scenario once, so the
// popular keys mix cheap and costly scenarios alike for every seed; the
// arrival count is fixed and the times are uniform, which is a Poisson
// stream conditioned on its count; a stream with at least one arrival
// per key asks for every key once, so every seed misses on the same
// keys; the other arrivals draw their ranks by systematic sampling, so
// each rank is asked for its expected number of times, rounded; and a
// fixed share of arrivals is duplicated.
func genStream(seed uint64, window time.Duration, rate float64) ([]key, []arrival) {
	r := rand.New(rand.NewPCG(seed, 0x5e7e))
	scens := experiments.Scenarios()
	keys := make([]key, 0, len(scens)*len(serveSystems))
	for _, sys := range r.Perm(len(serveSystems)) {
		for _, sc := range r.Perm(len(scens)) {
			keys = append(keys, key{scens[sc].ID, serveSystems[sys], seed})
		}
	}
	n := int(math.Round(rate * window.Seconds()))
	ranks := make([]int, 0, n)
	if n >= len(keys) {
		for k := range keys {
			ranks = append(ranks, k)
		}
	}
	ranks = append(ranks, zipfRanks(n-len(ranks), len(keys), r.Float64())...)
	r.Shuffle(n, func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	times := make([]time.Duration, n)
	for i := range times {
		times[i] = time.Duration(r.Float64() * float64(window))
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	stream := make([]arrival, n)
	for i := range stream {
		stream[i] = arrival{times[i], ranks[i]}
	}
	for _, i := range r.Perm(n)[:int(math.Round(dupShare*float64(n)))] {
		for _, d := range dupOffsets {
			stream = append(stream, arrival{times[i] + d, ranks[i]})
		}
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].At < stream[j].At })
	return keys, stream
}

// zipfRanks draws n ranks out of k with P(rank i) ∝ (i+1)^-zipfS by
// systematic sampling: draw j sits at quantile (j+u)/n of the
// distribution, so u in [0,1) is the only randomness and each rank is
// drawn its expected number of times, rounded up or down.
func zipfRanks(n, k int, u float64) []int {
	cum := make([]float64, k)
	total := 0.0
	for i := range cum {
		total += math.Pow(float64(i+1), -zipfS)
		cum[i] = total
	}
	ranks := make([]int, n)
	rank := 0
	for j := range ranks {
		q := (float64(j) + u) / float64(n) * total
		for rank < k-1 && cum[rank] <= q {
			rank++
		}
		ranks[j] = rank
	}
	return ranks
}

// requestBody is the POST /v1/sim body for k.
func requestBody(k key, dur sim.Time) []byte {
	b, err := json.Marshal(serve.SimRequest{System: k.System, Apps: []string{k.Scenario}, DurationMS: dur.Milliseconds(), Seed: k.Seed})
	if err != nil {
		panic(err) // a struct of strings and numbers always encodes
	}
	return b
}

// reference is the report vip.Simulate produces for k.
func reference(k key, dur sim.Time) ([]byte, error) {
	sys, err := vip.ParseSystem(k.System)
	if err != nil {
		return nil, err
	}
	return simulateBytes(vip.Scenario{System: sys, Apps: []string{k.Scenario}, Duration: dur, Seed: k.Seed})
}

// parseStages reads an X-Vip-Stages header ("admit=0.012ms;cache=…")
// into milliseconds per stage.
func parseStages(h string) (map[string]float64, error) {
	out := make(map[string]float64)
	if h == "" {
		return out, nil
	}
	for _, part := range strings.Split(h, ";") {
		name, val, ok := strings.Cut(part, "=")
		num, unit := strings.CutSuffix(val, "ms")
		if !ok || !unit || name == "" {
			return nil, fmt.Errorf("malformed stage %q in %q", part, h)
		}
		x, err := strconv.ParseFloat(num, 64)
		if err != nil {
			return nil, fmt.Errorf("stage %q: %w", name, err)
		}
		out[name] = x
	}
	return out, nil
}

// reply is what the client saw of one request.
type reply struct {
	due, sent, headers, done time.Time
	status                   int
	err                      error
	cache                    string
	stages                   map[string]float64
	body                     []byte
}

func (r reply) latency() time.Duration { return r.done.Sub(r.due) }

// post sends one request, due at due and sent at sent, and reads the
// whole body.
func post(c *http.Client, url string, body []byte, due, sent time.Time) reply {
	r := reply{due: due, sent: sent}
	resp, err := c.Post(url+"/v1/sim", "application/json", bytes.NewReader(body))
	if err != nil {
		r.err, r.done = err, now()
		return r
	}
	defer resp.Body.Close()
	r.headers = now()
	r.body, r.err = io.ReadAll(resp.Body)
	r.done = now()
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Vip-Cache")
	if r.err == nil {
		r.stages, r.err = parseStages(resp.Header.Get("X-Vip-Stages"))
	}
	return r
}

// loadGen is the open-loop generator. Tests replace the host clock and
// sleep with a fake pair.
type loadGen struct {
	clock func() time.Time
	wait  func(time.Time) // returns at or after its argument
}

// genRun is what the generator saw of one stream.
type genRun struct {
	replies            []reply
	lags               []float64 // ms each send ran behind its due time
	backlogAt, backlog []float64 // s into the run, requests sent but unanswered
}

// run sends stream[i] at start+At through send without waiting for any
// earlier reply, so a slow reply delays no later send, and every latency
// counts from the due time; it returns once every reply is in.
func (g loadGen) run(stream []arrival, send func(i int, due, sent time.Time) reply) genRun {
	res := genRun{replies: make([]reply, len(stream))}
	var completed atomic.Int64
	var wg sync.WaitGroup
	start := g.clock()
	for i, a := range stream {
		due := start.Add(a.At)
		g.wait(due)
		sent := g.clock()
		res.lags = append(res.lags, ms(sent.Sub(due)))
		res.backlogAt = append(res.backlogAt, sent.Sub(start).Seconds())
		res.backlog = append(res.backlog, float64(i)-float64(completed.Load()))
		wg.Add(1)
		go func() {
			defer wg.Done()
			res.replies[i] = send(i, due, sent)
			completed.Add(1)
		}()
	}
	wg.Wait()
	return res
}

// serveStats is the part of /v1/cache/stats the benchmark reads.
type serveStats struct {
	EngineRuns     uint64 `json:"engine_runs"`
	Dispatched     uint64 `json:"dispatched"`
	DeadlineMisses uint64 `json:"deadline_misses"`
}

func getStats(c *http.Client, url string) (serveStats, error) {
	var st serveStats
	resp, err := c.Get(url + "/v1/cache/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/cache/stats: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// startServer is the serve-mix set-up: serve.New with the default Config,
// Start on a free loopback port, then the first 200 from /ready.
func startServer() (*serve.Server, string, error) {
	s := serve.New(serve.Config{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, "", err
	}
	url := "http://" + addr
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := now().Add(5 * time.Second); ; {
		resp, err := c.Get(url + "/ready")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, url, nil
			}
		}
		if now().After(deadline) {
			s.Close()
			return nil, "", fmt.Errorf("server at %s not ready after 5s (last error: %v)", url, err)
		}
	}
}

// runServe is serve-mix: an in-process vipserve with an empty cache,
// driven open-loop by the seeded stream over at most nproc keep-alive
// connections. An op is one synchronous POST /v1/sim, timed from its due
// time to the last body byte.
func runServe(p params, o options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	keys, stream := genStream(o.seed, o.seconds, p.rate)
	if len(stream) == 0 {
		return nil, fmt.Errorf("the stream for %v holds no request", o.seconds)
	}
	cal := newKernel(p.calibIters)
	err := out.timeSetup(cal, 30, func() (time.Duration, error) {
		t0 := now()
		s, _, err := startServer()
		d := now().Sub(t0)
		if err == nil {
			s.Close()
		}
		return d, err
	})
	if err != nil {
		return nil, err
	}

	s, url, err := startServer()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	client := &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: o.nproc, MaxIdleConnsPerHost: o.nproc},
		Timeout:   time.Minute,
	}
	defer client.CloseIdleConnections()
	// Warm-up: one key outside the stream's, so the stream still starts
	// on an empty cache.
	if r := post(client, url, requestBody(key{"A3", "baseline", o.seed + 1}, p.keyDur), now(), now()); r.err != nil || r.status != http.StatusOK {
		return nil, fmt.Errorf("warm-up request: status %d, %v", r.status, r.err)
	}
	before, err := getStats(client, url)
	if err != nil {
		return nil, err
	}

	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = requestBody(k, p.keyDur)
	}
	m0 := readMem()
	gen := loadGen{now, sleepUntil}.run(stream, func(i int, due, sent time.Time) reply {
		return post(client, url, bodies[stream[i].Key], due, sent)
	})
	m := readMem().since(m0)
	after, err := getStats(client, url)
	if err != nil {
		return nil, err
	}

	replies := gen.replies
	out.attempted = len(stream)
	for i, r := range replies {
		// Request latency is not normalized: it is set by wake-ups and
		// loopback I/O more than by CPU speed, and scaling it by the
		// kernel's time widened its run-to-run spread.
		out.sample("op.raw_ms", ms(r.latency()))
		out.sample("op_ms", ms(r.latency()))
		if tr != nil {
			trace, root := tr.id(), tr.id()
			tr.child(trace, root, "gen.lag", r.due, r.sent)
			if !r.headers.IsZero() {
				tr.child(trace, root, "http.headers", r.sent, r.headers)
				tr.child(trace, root, "http.body", r.headers, r.done)
			}
			tr.record(trace, root, 0, "serve.request", r.due, r.done)
		}
		if r.err != nil || r.status != http.StatusOK {
			out.fail("request %d (%+v): status %d, %v", i, keys[stream[i].Key], r.status, r.err)
		}
	}
	first := checkBodies(out, keys, stream, replies)
	if err := checkReferences(out, o.seed, keys, first, p.keyDur); err != nil {
		return nil, err
	}
	// Every distinct key runs the engine once. More runs are wasted work,
	// counted in serve.duplicate_runs: two requests for a key that race
	// past the server's in-flight check both run it, with the same bytes.
	runs := after.EngineRuns - before.EngineRuns
	if runs < uint64(len(first)) {
		out.fail("engine runs %d are fewer than the %d distinct keys requested", runs, len(first))
	}

	out.finish(m)
	lag := summarize(gen.lags)
	out.timings["gen.lag_ms"] = lag
	if ms(maxLagP90) < lag.Tail {
		out.invalidate("generator lag p%.0f %.3f ms exceeds %v", 100*lag.TailP, lag.Tail, maxLagP90)
	}
	// A backlog that rises by more than a connection's worth over the run
	// means the server fell behind the offered rate.
	if rise := slope(gen.backlogAt, gen.backlog) * o.seconds.Seconds(); rise > float64(o.nproc) {
		out.invalidate("backlog grew by %.1f requests over the run", rise)
	}
	work := serveLayers(out, stream, replies, first, lag, runs, after, before)
	putAlloc(out.layer, m, work.Events)
	putGC(out.layer, m, len(stream))
	return out, nil
}

// checkBodies fails every request whose body differs from the first body
// served for its key, and returns the first bodies by key rank.
func checkBodies(out *outcome, keys []key, stream []arrival, replies []reply) map[int][]byte {
	first := make(map[int][]byte)
	for i, r := range replies {
		if r.err != nil || r.status != http.StatusOK {
			continue
		}
		k := stream[i].Key
		if b, ok := first[k]; !ok {
			first[k] = r.body
		} else if !bytes.Equal(b, r.body) {
			out.fail("request %d: body for %+v differs from the first served", i, keys[k])
		}
	}
	return first
}

// checkReferences compares the served bodies of four seeded keys with
// vip.Simulate.
func checkReferences(out *outcome, seed uint64, keys []key, first map[int][]byte, dur sim.Time) error {
	ranks := make([]int, 0, len(first))
	for k := range first {
		ranks = append(ranks, k)
	}
	sort.Ints(ranks)
	r := rand.New(rand.NewPCG(seed, 0x4ef))
	r.Shuffle(len(ranks), func(i, j int) { ranks[i], ranks[j] = ranks[j], ranks[i] })
	for _, k := range ranks[:min(4, len(ranks))] {
		ref, err := reference(keys[k], dur)
		if err != nil {
			return err
		}
		if !bytes.Equal(ref, first[k]) {
			out.fail("served report for %+v differs from vip.Simulate", keys[k])
		}
	}
	return nil
}

// reportCounts is the simulated work a served report records.
type reportCounts struct {
	Sim struct{ EventsFired uint64 }
	Mem struct{ Requests uint64 }
	CPU struct{ Tasks, Interrupts uint64 }
	IPs []struct {
		Stats struct{ Frames, CtxSwitch uint64 }
	}
}

// serveLayers fills the serve-mix per-layer metrics and returns the
// simulated work: the sum over the reports of the distinct keys, one
// engine run each. NoC counts are not in the report, so they stay 0.
func serveLayers(out *outcome, stream []arrival, replies []reply, first map[int][]byte, lag summary, runs uint64, after, before serveStats) simCounts {
	var c simCounts
	for _, b := range first {
		var rc reportCounts
		if err := json.Unmarshal(b, &rc); err != nil {
			out.fail("decoding a served report: %v", err)
			continue
		}
		c.Events += rc.Sim.EventsFired
		c.DRAMRequests += rc.Mem.Requests
		c.CPUTasks += rc.CPU.Tasks
		c.CPUInterrupts += rc.CPU.Interrupts
		for _, ip := range rc.IPs {
			c.IPJobs += ip.Stats.Frames
			c.IPCtxSwitches += ip.Stats.CtxSwitch
		}
	}
	c.put(out.layer)

	var hit, miss, admit, lookup, overhead, queue, simulate []float64
	var hits, coalesced, inSLO int
	var simulateSum float64
	for i, r := range replies {
		lat := ms(r.latency())
		if r.err == nil && r.status == http.StatusOK && r.latency() <= sloLatency && bytes.Equal(r.body, first[stream[i].Key]) {
			inSLO++
		}
		admit = append(admit, r.stages["admit"])
		lookup = append(lookup, r.stages["cache"])
		switch r.cache {
		case "hit":
			hits++
			hit = append(hit, lat)
			var staged float64
			for _, v := range r.stages {
				staged += v
			}
			overhead = append(overhead, lat-staged)
		case "miss", "coalesced":
			if r.cache == "coalesced" {
				coalesced++
			}
			miss = append(miss, lat)
			queue = append(queue, r.stages["queue"])
			if r.cache == "miss" {
				simulate = append(simulate, r.stages["simulate"])
				simulateSum += r.stages["simulate"]
			}
		}
	}
	n := float64(len(replies))
	hs, mss := summarize(hit), summarize(miss)
	qs := summarize(queue)
	out.timings["serve.hit_ms"] = hs
	out.timings["serve.miss_ms"] = mss
	out.timings["pool.queue_ms"] = qs
	l := out.layer
	l["serve.hit_p50_ms"], l["serve.hit_p90_ms"] = hs.P50, hs.Tail
	l["serve.miss_p50_ms"], l["serve.miss_p90_ms"] = mss.P50, mss.Tail
	l["serve.slo_pct"] = 100 * float64(inSLO) / n
	l["serve.admit_p50_ms"] = median(admit)
	l["cache.lookup_p50_ms"] = median(lookup)
	l["serve.overhead_p50_ms"] = median(overhead)
	l["pool.queue_p50_ms"], l["pool.queue_p90_ms"] = qs.P50, qs.Tail
	l["serve.simulate_p50_ms"] = median(simulate)
	l["cache.hit_pct"] = 100 * float64(hits) / n
	l["serve.coalesced_pct"] = 100 * float64(coalesced) / n
	l["serve.engine_runs"] = float64(runs)
	l["serve.duplicate_runs"] = float64(runs) - float64(len(first))
	l["pool.dispatched"] = float64(after.Dispatched - before.Dispatched)
	l["pool.deadline_misses"] = float64(after.DeadlineMisses - before.DeadlineMisses)
	l["gen.lag_p90_ms"] = lag.Tail
	if c.Events > 0 {
		l["sim.ns_per_event"] = simulateSum * 1e6 / float64(c.Events)
	}
	return c
}
