package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilTracerAndSpanAreNoOps(t *testing.T) {
	var tr *Tracer
	span := tr.Start("root")
	if span != nil {
		t.Fatal("nil tracer returned a live span")
	}
	// Every span method must be callable on nil.
	span.SetAttr("k", 1)
	span.Event("e", "k", 2)
	child := span.Child("child")
	child.End()
	span.End()
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil tracer retained spans: %v", got)
	}
}

func TestSpanNestingAndJSONL(t *testing.T) {
	var sink strings.Builder
	tr := NewTracer(&sink)

	root := tr.Start("tuning_round")
	root.SetAttr("round", 1)
	c1 := root.Child("diagnose")
	c1.End()
	c2 := root.Child("mcts")
	c2.Event("best_improved", "iteration", 3, "cost", 12.5)
	grand := c2.Child("rollout")
	grand.End()
	c2.End()
	root.End()

	// JSONL: one parseable object per line, children before parents.
	var lines []SpanData
	sc := bufio.NewScanner(strings.NewReader(sink.String()))
	for sc.Scan() {
		var d SpanData
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		lines = append(lines, d)
	}
	if len(lines) != 4 {
		t.Fatalf("got %d spans, want 4", len(lines))
	}
	byName := map[string]SpanData{}
	for _, d := range lines {
		byName[d.Name] = d
	}
	rootD := byName["tuning_round"]
	if rootD.ParentID != 0 {
		t.Fatalf("root has parent %d", rootD.ParentID)
	}
	if byName["diagnose"].ParentID != rootD.SpanID || byName["mcts"].ParentID != rootD.SpanID {
		t.Fatal("children not parented to root")
	}
	if byName["rollout"].ParentID != byName["mcts"].SpanID {
		t.Fatal("grandchild not parented to mcts")
	}
	for _, d := range lines {
		if d.TraceID != rootD.TraceID {
			t.Fatalf("span %s escaped the trace: %d != %d", d.Name, d.TraceID, rootD.TraceID)
		}
	}
	// Emission order: a span is emitted at End, so children precede parents.
	if lines[len(lines)-1].Name != "tuning_round" {
		t.Fatalf("root emitted before its children: %v", lines)
	}
	// Events and attrs survive the round trip.
	ev := byName["mcts"].Events
	if len(ev) != 1 || ev[0].Name != "best_improved" || ev[0].Attrs["cost"].(float64) != 12.5 {
		t.Fatalf("events = %+v", ev)
	}
	if rootD.Attrs["round"].(float64) != 1 {
		t.Fatalf("attrs = %v", rootD.Attrs)
	}
}

// writeCounter is a sink that counts the writes it receives.
type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}

// TestTraceWrittenWhenRootEnds: encoding and writing a span costs time, so
// nothing is written while the root is open; the root's End writes the whole
// trace in end order, and a child ending after its root is written at once.
func TestTraceWrittenWhenRootEnds(t *testing.T) {
	sink := &writeCounter{}
	tr := NewTracer(sink)
	root := tr.Start("tuning_round")
	c := root.Child("workload")
	c.Child("scan").End()
	c.End()
	late := root.Child("apply")
	if sink.writes != 0 || len(tr.Recent()) != 0 {
		t.Fatalf("%d writes, %d ring spans before the root ended", sink.writes, len(tr.Recent()))
	}
	root.End()
	if sink.writes != 3 {
		t.Fatalf("root's End wrote %d spans, want 3", sink.writes)
	}
	var names []string
	for _, d := range tr.Recent() {
		names = append(names, d.Name)
	}
	if got := strings.Join(names, ","); got != "scan,workload,tuning_round" {
		t.Fatalf("written in order %s", got)
	}
	late.End()
	if sink.writes != 4 {
		t.Fatalf("a child ending after its root was not written: %d writes", sink.writes)
	}
}

func TestTracerRing(t *testing.T) {
	tr := NewTracer(nil)
	for i := 0; i < ringCapacity+2; i++ {
		tr.Start("s").End()
	}
	recent := tr.Recent()
	if len(recent) != ringCapacity {
		t.Fatalf("ring holds %d, want %d", len(recent), ringCapacity)
	}
	// Oldest evicted: the ring holds spans 3 .. ringCapacity+2, in order.
	for i, d := range recent {
		if d.SpanID != uint64(i+3) {
			t.Fatalf("ring[%d] = span %d, want %d", i, d.SpanID, i+3)
		}
	}
}

func TestDoubleEndIsIdempotent(t *testing.T) {
	tr := NewTracer(nil)
	s := tr.Start("x")
	s.End()
	s.End()
	if got := len(tr.Recent()); got != 1 {
		t.Fatalf("double End emitted %d spans", got)
	}
}

func TestBuildForest(t *testing.T) {
	tr := NewTracer(nil)
	root := tr.Start("round")
	a := root.Child("a")
	a.Child("a1").End()
	a.End()
	root.Child("b").End()
	root.End()
	orphan := tr.Start("solo")
	orphan.End()

	forest := BuildForest(tr.Recent())
	if len(forest) != 2 {
		t.Fatalf("forest has %d roots, want 2", len(forest))
	}
	if forest[0].Name != "round" || forest[1].Name != "solo" {
		t.Fatalf("roots = %s, %s", forest[0].Name, forest[1].Name)
	}
	round := forest[0]
	if len(round.Children) != 2 || round.Children[0].Name != "a" || round.Children[1].Name != "b" {
		t.Fatalf("round children wrong: %+v", round.Children)
	}
	if len(round.Children[0].Children) != 1 || round.Children[0].Children[0].Name != "a1" {
		t.Fatal("grandchild lost")
	}
}

func TestDefaultTracerToggle(t *testing.T) {
	if DefaultTracer() != nil {
		t.Fatal("default tracer should start nil")
	}
	tr := NewTracer(nil)
	SetDefaultTracer(tr)
	defer SetDefaultTracer(nil)
	if DefaultTracer() != tr {
		t.Fatal("default tracer not installed")
	}
}
