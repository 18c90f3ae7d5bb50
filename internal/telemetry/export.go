package telemetry

import (
	"encoding/json"
	"io"
)

// WriteJSONL writes the sorted span log as JSON Lines: one compact JSON
// object per span. Two runs of the same scenario and seed produce
// byte-identical output; the reproducibility tests pin that.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, s := range r.Spans() {
		b, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// WriteChrome writes the span log as a Chrome/Perfetto trace JSON
// array: one named track (thread) per span track in first-seen order of
// the sorted log, "X" duration events for spans, "i" instants for
// marks, with span attributes carried in args.
func (r *Recorder) WriteChrome(w io.Writer) error {
	spans := r.Spans()
	return writeChrome(w, tracksOf(spans), spans)
}

// ChromeEvent is one entry of the Chrome trace JSON array.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TSUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
	Cat   string         `json:"cat,omitempty"`
}

// ThreadName builds the metadata event that names a track (tid) in the
// Chrome/Perfetto UI.
func ThreadName(tid int, name string) ChromeEvent {
	return ChromeEvent{
		Name:  "thread_name",
		Phase: "M",
		PID:   1,
		TID:   tid,
		Args:  map[string]any{"name": name},
	}
}

// WriteChromeJSON writes events as one Chrome trace JSON array, loadable
// in chrome://tracing or ui.perfetto.dev. Map-valued Args encode with
// sorted keys (encoding/json), so output is deterministic.
func WriteChromeJSON(w io.Writer, evs []ChromeEvent) error {
	return json.NewEncoder(w).Encode(evs)
}

// writeChrome writes spans, already sorted by start time, as a Chrome
// trace: a thread_name event per entry of tracks, whose tids count from
// 1 in that order, then an "X" event per span and an "i" instant per
// zero-length span, with attributes in args.
func writeChrome(w io.Writer, tracks []string, spans []Span) error {
	tid := make(map[string]int, len(tracks))
	evs := make([]ChromeEvent, 0, len(tracks)+len(spans))
	for i, t := range tracks {
		tid[t] = i + 1
		evs = append(evs, ThreadName(i+1, t))
	}
	for _, s := range spans {
		ce := ChromeEvent{
			Name:  s.Name,
			TSUs:  s.Start.Microseconds(),
			PID:   1,
			TID:   tid[s.Track],
			Cat:   s.Cat,
			Phase: "X",
			DurUs: s.Dur.Microseconds(),
		}
		if s.Dur == 0 {
			ce.Phase = "i"
		}
		if len(s.Attrs) > 0 {
			args := make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				args[a.Key] = a.Val
			}
			ce.Args = args
		}
		evs = append(evs, ce)
	}
	return WriteChromeJSON(w, evs)
}

// tracksOf returns the distinct tracks of spans in first-seen order.
func tracksOf(spans []Span) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range spans {
		if !seen[s.Track] {
			seen[s.Track] = true
			out = append(out, s.Track)
		}
	}
	return out
}
