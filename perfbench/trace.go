package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"

	"spatialjoin"
)

// maxSpans bounds the spans a traced run keeps in memory; later spans
// are still timed (their medians count) but not written out.
const maxSpans = 200_000

// span is one benchmark-side span around a call into a layer, or a span
// the facade recorded inside such a call. Times are nanoseconds since
// the recorder started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run and the duration samples of
// each span name, which the per-layer metrics are medians of.
type recorder struct {
	t0      time.Time
	spans   []span
	dropped int
	next    int
	samples map[string][]float64 // ms per span name, plus noted values
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), samples: map[string][]float64{}}
}

func (r *recorder) add(s span) {
	r.note(s.Name, float64(s.End-s.Start)/1e6)
	if len(r.spans) >= maxSpans {
		r.dropped++
		return
	}
	r.spans = append(r.spans, s)
}

// timed runs fn inside a span named name under parent (0 for a request
// root) of request req, and returns the span id and fn's error. fn gets
// the span id to parent nested spans on.
func (r *recorder) timed(name string, parent, req int, fn func(id int) error) (int, error) {
	r.next++
	id := r.next
	start := time.Since(r.t0).Nanoseconds()
	err := fn(id)
	r.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: time.Since(r.t0).Nanoseconds()})
	return id, err
}

// adopt copies the spans a facade tracer recorded during the timed call
// named call (span id parent) under that span, so the dump shows where
// inside the call the time went. Adopted spans are named call/<facade
// span name>, e.g. core.Prepare/shuffle or core.Execute/task.
func (r *recorder) adopt(tr *spatialjoin.Tracer, call string, parent, req int) {
	base := r.t0.UnixNano()
	spans := tr.Spans()
	ids := map[spatialjoin.SpanID]int{}
	for _, s := range spans {
		r.next++
		ids[s.ID] = r.next
	}
	for _, s := range spans {
		p, ok := ids[s.Parent]
		if !ok {
			p = parent
		}
		end := s.Done
		if end < s.Start {
			end = s.Start
		}
		r.add(span{ID: ids[s.ID], Parent: p, Req: req, Name: call + "/" + s.Name, Start: s.Start - base, End: end - base})
	}
}

// note records one sample of a per-call quantity that is not a span,
// such as the allocations of one Execute.
func (r *recorder) note(name string, v float64) { r.samples[name] = append(r.samples[name], v) }

// med is the median sample of a name: for a span name its duration in
// ms (0 when never seen).
func (r *recorder) med(name string) float64 { return median(r.samples[name]) }

// last is the most recent sample of a name.
func (r *recorder) last(name string) float64 {
	xs := r.samples[name]
	return xs[len(xs)-1]
}

// selfTimes sums, per span name, each span's duration minus the part of
// it its children cover.
func (r *recorder) selfTimes() map[string]float64 {
	kids := map[int][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range r.spans {
		cs := kids[s.ID]
		slices.SortFunc(cs, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		covered, reach := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += float64(s.End-s.Start-covered) / 1e6
	}
	return out
}

// write dumps the spans and per-name self times as JSON.
func (r *recorder) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Dropped  int                `json:"dropped_spans"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, seed, r.dropped, r.selfTimes(), r.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
