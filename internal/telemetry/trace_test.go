package telemetry

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"themis/internal/race"
)

func TestRoundRingKeepsLastN(t *testing.T) {
	rr := NewRoundRing(4)
	for i := 0; i < 10; i++ {
		rd := Round{Shard: "single", Now: float64(i), Offered: i}
		rd.AddSpan("probe", 0, time.Millisecond)
		rr.Record(rd)
	}
	got := rr.Snapshot()
	if len(got) != 4 {
		t.Fatalf("snapshot holds %d rounds, want 4", len(got))
	}
	for i, rd := range got {
		wantSeq := uint64(7 + i)
		if rd.Seq != wantSeq {
			t.Errorf("round %d: seq %d, want %d", i, rd.Seq, wantSeq)
		}
		if rd.Offered != int(wantSeq-1) {
			t.Errorf("round %d: offered %d, want %d", i, rd.Offered, wantSeq-1)
		}
		if len(rd.Spans()) != 1 || rd.Spans()[0].Name != "probe" {
			t.Errorf("round %d: spans %v, want the probe span", i, rd.Spans())
		}
	}
}

func TestRoundRingRecordZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	rr := NewRoundRing(8)
	allocs := testing.AllocsPerRun(500, func() {
		var rd Round
		rd.Shard = "0"
		rd.AddSpan("probe", 0, time.Millisecond)
		rd.AddSpan("solve", time.Millisecond, 2*time.Millisecond)
		rr.Record(rd)
	})
	if allocs != 0 {
		t.Errorf("recording a round trace allocates %.1f objects/op, want 0", allocs)
	}
}

func TestRoundRingJSON(t *testing.T) {
	rr := NewRoundRing(8)
	rd := Round{Shard: "0", Now: 2.5, Offered: 64, Granted: 60, Winners: 3, Leftover: 4, Agents: 100, Total: 5 * time.Millisecond}
	rd.AddSpan("probe", 0, time.Millisecond)
	rd.AddSpan("solve", time.Millisecond, 3*time.Millisecond)
	rr.Record(rd)

	var b strings.Builder
	if err := rr.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Rounds []struct {
			Seq     uint64  `json:"seq"`
			Shard   string  `json:"shard"`
			Offered int     `json:"offered_gpus"`
			TotalMs float64 `json:"total_ms"`
			Spans   []struct {
				Name  string  `json:"name"`
				DurMs float64 `json:"dur_ms"`
			} `json:"spans"`
		} `json:"rounds"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid /debug/rounds JSON: %v\n%s", err, b.String())
	}
	if len(doc.Rounds) != 1 {
		t.Fatalf("got %d rounds, want 1", len(doc.Rounds))
	}
	r := doc.Rounds[0]
	if r.Seq != 1 || r.Shard != "0" || r.Offered != 64 || r.TotalMs != 5 {
		t.Errorf("round fields wrong: %+v", r)
	}
	if len(r.Spans) != 2 || r.Spans[1].Name != "solve" || r.Spans[1].DurMs != 3 {
		t.Errorf("spans wrong: %+v", r.Spans)
	}

	var text strings.Builder
	rr.WriteText(&text)
	if !strings.Contains(text.String(), "solve=3.000ms") {
		t.Errorf("text dump missing solve span:\n%s", text.String())
	}
}

func TestRoundSpanOverflowDropped(t *testing.T) {
	var rd Round
	for i := 0; i < MaxSpans+3; i++ {
		rd.AddSpan("s", 0, 0)
	}
	if got := len(rd.Spans()); got != MaxSpans {
		t.Errorf("round holds %d spans, want cap at %d", got, MaxSpans)
	}
}
