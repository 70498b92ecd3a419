package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (spans inside the program are a later issue). Trace groups the spans
// of one statement or one tuning round; Parent is 0 for a root.
type span struct {
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	Trace   int32  `json:"trace"`
	Name    string `json:"name"`
	Phase   string `json:"phase"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) durNs() int64 { return s.EndNs - s.StartNs }

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays one nil check per call site. Safe for
// the foreground client and the tuner goroutine to share.
type recorder struct {
	mu        sync.Mutex
	epoch     time.Time
	spans     []span
	nextTrace int32
}

func newRecorder(capacity int) *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// newTrace allocates the identifier a statement's or round's spans share.
func (r *recorder) newTrace() int32 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextTrace++
	return r.nextTrace
}

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(parent, trace int32, name, phase string) int32 {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Phase: phase, StartNs: now, EndNs: now})
	return id
}

// end closes a span opened by begin and returns its duration.
func (r *recorder) end(id int32) time.Duration {
	if r == nil || id == 0 {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.EndNs = now
	return time.Duration(s.durNs())
}

// add records a span the caller timed itself (start and duration known).
func (r *recorder) add(parent, trace int32, name, phase string, start time.Time, d time.Duration) int32 {
	if r == nil {
		return 0
	}
	s := start.Sub(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name, Phase: phase, StartNs: s, EndNs: s + d.Nanoseconds()})
	return id
}

// named returns the durations (ns) of every span with the given name.
func (r *recorder) named(name string) []int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []int64
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.durNs())
		}
	}
	return out
}

// selfNs returns one span's self time (see selfTimes).
func (r *recorder) selfNs(id int32) int64 {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return selfTimes(r.spans)[id]
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval covered by the union of its children's intervals (children may
// overlap each other — a tuner and a foreground client run side by side —
// and are clipped to the parent).
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int32]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.durNs() - coveredNs(s, children[s.ID])
	}
	return out
}

// coveredNs is the length of the union of the kids' intervals inside parent.
func coveredNs(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	ivs := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := k.StartNs, k.EndNs
		if lo < parent.StartNs {
			lo = parent.StartNs
		}
		if hi > parent.EndNs {
			hi = parent.EndNs
		}
		if hi > lo {
			ivs = append(ivs, [2]int64{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var covered, curLo, curHi int64
	open := false
	for _, iv := range ivs {
		switch {
		case !open:
			curLo, curHi, open = iv[0], iv[1], true
		case iv[0] <= curHi:
			if iv[1] > curHi {
				curHi = iv[1]
			}
		default:
			covered += curHi - curLo
			curLo, curHi = iv[0], iv[1]
		}
	}
	if open {
		covered += curHi - curLo
	}
	return covered
}

// writeJSONL writes one JSON object per span, tagged with the workload and
// carrying the span's self time.
func (r *recorder) writeJSONL(path, workload string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		span
		SelfNs   int64  `json:"self_ns"`
		Workload string `json:"workload"`
	}
	r.mu.Lock()
	self := selfTimes(r.spans)
	for _, s := range r.spans {
		if err := enc.Encode(line{span: s, SelfNs: self[s.ID], Workload: workload}); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
