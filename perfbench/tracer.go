package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. Times are host nanoseconds since the tracer's
// epoch.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a root span
	Consult  int    `json:"consult"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	SelfNs   int64  `json:"self_ns"`
	Workload string `json:"workload,omitempty"`
}

func (s span) dur() int64 { return s.EndNs - s.StartNs }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced consultations run the same code without it. It
// is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, consult int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Consult: consult, Name: name,
		StartNs: time.Since(t.epoch).Nanoseconds(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].EndNs = time.Since(t.epoch).Nanoseconds()
}

// computeSelf sets every span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (spans
// of concurrent work) count once.
func computeSelf(spans []span) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for i := range spans {
		spans[i].SelfNs = spans[i].dur() - covered(spans[i], children[spans[i].ID])
	}
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, v := range iv {
		switch {
		case !open:
			curLo, curHi, open = v[0], v[1], true
		case v[0] <= curHi:
			curHi = max(curHi, v[1])
		default:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// perConsult sums, for each consultation id, the durations of the spans
// named name (a consultation may call one stage once per policy).
func perConsult(spans []span, name string) map[int]int64 {
	out := map[int]int64{}
	for _, s := range spans {
		if s.Name == name {
			out[s.Consult] += s.dur()
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object a line, after a first
// line carrying the run's provenance.
func writeJSONL(path string, prov provenance, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(map[string]provenance{"provenance": prov}); err != nil {
		return err
	}
	for _, s := range spans {
		s.Workload = prov.Workload
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing span %d: %w", s.ID, err)
		}
	}
	return bw.Flush()
}
