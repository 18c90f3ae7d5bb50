package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer's public entry
// point. Spans of one operation (a run, a sweep cell, a request) share a
// trace id; Parent is 0 for the operation's root span.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced pass ends. A nil tracer
// is the untraced pass: it hands out id 0 and records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	last  uint64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// id allocates a fresh span or trace id.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.last++
	id := t.last
	t.mu.Unlock()
	return id
}

// record stores one finished span.
func (t *tracer) record(trace, id, parent uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{
		Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// child records a span under parent in trace.
func (t *tracer) child(trace, parent uint64, name string, start, end time.Time) {
	t.record(trace, t.id(), parent, name, start, end)
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its child spans cover.
func selfTimes(spans []span) map[string]spanStat {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]spanStat)
	for _, s := range spans {
		st := out[s.Name]
		st.Count++
		dur := float64(s.End - s.Start)
		st.TotalMS += dur / 1e6
		st.SelfMS += (dur - float64(covered(s, kids[s.ID]))) / 1e6
		out[s.Name] = st
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, r := range iv {
		if r[0] > end {
			end = r[0]
		}
		if r[1] > end {
			total += r[1] - end
			end = r[1]
		}
	}
	return total
}

// writeJSONL writes one span per line.
func writeJSONL(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// writeChrome writes the spans in the Chrome trace-event format (open in
// ui.perfetto.dev), one row per trace id.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  uint64         `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{
			Name: s.Name, Ph: "X", PID: 1, TID: s.Trace,
			TS: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{"span": s.ID, "parent": s.Parent},
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

// profiler takes one CPU profile of the traced pass into dir.
type profiler struct {
	path string
	f    *os.File
}

func startProfile(dir string) (*profiler, error) {
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &profiler{path: path, f: f}, nil
}

// stop ends the profile and reduces it to flat percent per module with
// `go tool pprof -top`, keeping the tool's text beside the profile.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", p.path)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	if err := os.WriteFile(strings.TrimSuffix(p.path, ".pprof")+"-top.txt", out, 0o644); err != nil {
		return nil, err
	}
	return bucketTop(string(out))
}

// The buckets self time is split into. Each becomes a <bucket>_pct or
// <bucket>.self_pct per-layer metric; together they cover every sample.
var buckets = []string{
	"sim", "dram", "noc", "ipcore", "cpu", "energy", "core", "experiments",
	"serve", "cache", "nethttp_json", "runtime.gc", "runtime.other", "other",
}

// moduleBuckets maps the repository's internal packages to buckets; the
// core bucket holds the run assembly and driver model (core, app,
// workload, platform) and the public facade.
var moduleBuckets = map[string]string{
	"sim": "sim", "dram": "dram", "noc": "noc", "ipcore": "ipcore", "cpu": "cpu",
	"energy": "energy", "core": "core", "app": "core", "workload": "core",
	"platform": "core", "experiments": "experiments", "parallel": "experiments",
	"serve": "serve", "cache": "cache",
}

// gcMarkers are substrings of runtime function names that belong to the
// allocator or the garbage collector. The split is by name, so it is
// approximate: map and scheduler code count as runtime.other.
var gcMarkers = []string{
	"gc", "GC", "malloc", "alloc", "Alloc", "mark", "Mark", "sweep", "Sweep",
	"scan", "heap", "Heap", "span", "Span", "mcache", "mcentral", "greyobject",
	"newobject", "makeslice", "growslice", "Barrier", "wbBuf", "MCache",
	"memclrNoHeapPointers", "findObject", "nextFreeFast", "typePointers",
}

// bucketOf names the bucket of one pprof function name.
func bucketOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold package paths of their own
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	// Names without a package are the runtime's assembly helpers, such as
	// aeshashbody and gcWriteBarrier.
	if dot < 0 || fn[:slash+1+dot] == "runtime" {
		for _, m := range gcMarkers {
			if strings.Contains(fn, m) {
				return "runtime.gc"
			}
		}
		return "runtime.other"
	}
	pkg := fn[:slash+1+dot]
	const mod = "github.com/vipsim/vip/"
	if rest, ok := strings.CutPrefix(pkg, mod+"internal/"); ok {
		if b, ok := moduleBuckets[rest]; ok {
			return b
		}
		return "other"
	}
	switch {
	case pkg == mod+"vip":
		return "core"
	case pkg == "net", strings.HasPrefix(pkg, "net/"), pkg == "encoding/json",
		pkg == "bufio", pkg == "internal/poll", pkg == "syscall",
		pkg == "internal/runtime/syscall", pkg == "mime":
		return "nethttp_json"
	case strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime.other"
	}
	return "other"
}

// bucketTop sums the flat column of `go tool pprof -top` output per
// bucket, as percent of the profile's total samples. Every bucket is
// present in the result.
func bucketTop(text string) (map[string]float64, error) {
	out := make(map[string]float64, len(buckets))
	for _, b := range buckets {
		out[b] = 0
	}
	total := 0.0
	inTable := false
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		f := strings.Fields(line)
		if !inTable {
			if i := strings.Index(line, "% of "); i >= 0 && strings.HasSuffix(line, " total") {
				t, err := pprofSeconds(strings.TrimSuffix(line[i+len("% of "):], " total"))
				if err != nil {
					return nil, err
				}
				total = t
			}
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := pprofSeconds(f[0])
		if err != nil {
			return nil, err
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		out[bucketOf(fn)] += flat
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof output has no sample total")
	}
	for b := range out {
		out[b] *= 100 / total
	}
	return out, nil
}

// pprofSeconds parses one pprof time value such as 1.25s, 30ms or 2mins.
func pprofSeconds(v string) (float64, error) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"hrs", 3600}, {"mins", 60}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if num, ok := strings.CutSuffix(v, u.suffix); ok {
			x, err := strconv.ParseFloat(num, 64)
			return x * u.scale, err
		}
	}
	if v == "0" {
		return 0, nil
	}
	return 0, fmt.Errorf("unrecognized pprof value %q", v)
}
