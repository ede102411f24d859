package labelsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/store"
)

// logSelectors returns the raw "selector" object of every whole record in
// the delta log beside statePath, in log order.
func logSelectors(t *testing.T, statePath string) []json.RawMessage {
	t.Helper()
	data, err := os.ReadFile(logPath(statePath))
	if err != nil {
		t.Fatal(err)
	}
	var out []json.RawMessage
	for len(data) > 0 {
		body, ok := store.FrameAt(data, 0)
		if !ok {
			t.Fatalf("bad frame with %d log bytes left", len(data))
		}
		var rec struct {
			Selector json.RawMessage `json:"selector"`
		}
		if err := json.Unmarshal(body, &rec); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec.Selector)
		data = data[store.FrameHeader+len(body):]
	}
	return out
}

// TestSelectorStateStaysBounded runs BAL under steady ingest: each round
// adds 32 samples that fire both assertions and labels 16, so no firing
// count ever falls and every round after the first falls back to the
// baseline. The selector state each log record carries must not grow with
// the rounds: it is the kind, the seed and one round's firing counts,
// never a history of rounds.
func TestSelectorStateStaysBounded(t *testing.T) {
	const rounds, samples, budget = 220, 32, 16
	src := seedSource(2000)
	statePath := filepath.Join(t.TempDir(), "labels.json")
	s := mustNew(t, src, Config{StatePath: statePath, LeaseTTL: time.Hour})
	defer s.Close()
	next := 2000
	var prevFired []float64
	for r := 1; r <= rounds; r++ {
		fresh := make([]assertion.Violation, 0, 2*samples)
		for i := 0; i < samples; i++ {
			stream := fmt.Sprintf("cam-%d", next%2)
			fresh = append(fresh, v("lights", stream, next, 1+float64(next%7)), v("track:flicker", stream, next, 0.5+float64(next%5)))
			next++
		}
		src.add(fresh...)
		s.ObserveBatch("edge-1", fresh)
		b, err := s.Next(budget, "p")
		if err != nil {
			t.Fatal(err)
		}
		if b.Round != r || len(b.Candidates) != budget {
			t.Fatalf("round %d served round %d with %d candidates", r, b.Round, len(b.Candidates))
		}
		fired := s.StateSnapshot().Selector.BAL.PrevFired
		for m := range prevFired {
			if fired[m] < prevFired[m] {
				t.Fatalf("round %d: assertion %d fired %v times after %v: BAL did not fall back", r, m, fired[m], prevFired[m])
			}
		}
		prevFired = fired
		fb := make([]Feedback, 0, budget)
		for _, c := range b.Candidates {
			fb = append(fb, Feedback{SampleKey: c.SampleKey, Label: "x"})
		}
		if _, err := s.ApplyFeedback(fb); err != nil {
			t.Fatal(err)
		}
	}
	sels := logSelectors(t, statePath)
	if len(sels) == 0 {
		t.Fatal("the log holds no record after the last round")
	}
	if last := sels[len(sels)-1]; len(last) >= 256 {
		t.Fatalf("after %d fallback rounds the last record's selector is %d bytes, want < 256: %s", rounds-1, len(last), last)
	}
	raw, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Selector json.RawMessage `json:"selector"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Selector) >= 256 {
		t.Fatalf("the snapshot's selector is %d bytes, want < 256: %s", len(snap.Selector), snap.Selector)
	}
}

// TestUnknownSelectorKindKeepsLabels revives a labels.json written by a
// build that had a selector this one does not: its labels, lease, round
// and counters survive, the configured selector ranks from here on, and
// the swap is logged.
func TestUnknownSelectorKindKeepsLabels(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "labels.json")
	const old = `{"version":1,` +
		`"selector":{"kind":"ccmab","seed":3,"bal":{},"ccmab":{"counts":{"0":2},"sums":{"0":1}}},` +
		`"round":2,"served":5,"feedback":2,"errors_found":1,` +
		`"labeled":[{"stream":"cam-0","sample":2,"label":"car","round":1},` +
		`{"stream":"cam-1","sample":1,"label":"ok","model_correct":true,"round":2}],` +
		`"leases":[{"stream":"cam-0","sample":4,"puller":"a","round":2,"expires_unix":1700000300}]}` + "\n"
	if err := os.WriteFile(statePath, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	defer log.SetOutput(log.Writer())
	log.SetOutput(&logged)
	s := mustNew(t, seedSource(40), Config{StatePath: statePath})
	defer s.Close()
	for _, want := range []string{statePath, `"ccmab"`, `"bal"`} {
		if !strings.Contains(logged.String(), want) {
			t.Fatalf("revival log %q does not name %s", logged.String(), want)
		}
	}
	st := s.Stats()
	if st.Selector != "bal" || st.Round != 2 || st.Labeled != 2 || st.Leased != 1 ||
		st.Served != 5 || st.Feedback != 2 || st.ErrorsFound != 1 {
		t.Fatalf("stats = %+v, want bal over round 2 with 2 labels and 1 lease", st)
	}
	b, err := s.Next(4, "b")
	if err != nil {
		t.Fatal(err)
	}
	if b.Round != 3 || b.Selector != "bal" || len(b.Candidates) != 4 {
		t.Fatalf("next = round %d by %q with %d candidates, want round 3 by bal with 4", b.Round, b.Selector, len(b.Candidates))
	}
	for _, c := range b.Candidates {
		if k := c.SampleKey; (k.Stream == "cam-0" && (k.Sample == 2 || k.Sample == 4)) || (k.Stream == "cam-1" && k.Sample == 1) {
			t.Fatalf("served %+v, which is labeled or leased", k)
		}
	}
}

// TestFeedbackNeverMovesSelector pins the one protocol every selector
// follows: its state advances when a round is drawn and never per label,
// so a feedback record carries the selector bytes of the pull before it.
func TestFeedbackNeverMovesSelector(t *testing.T) {
	for _, kind := range bandit.RoundSelectorKinds {
		t.Run(kind, func(t *testing.T) {
			statePath := filepath.Join(t.TempDir(), "labels.json")
			s := mustNew(t, seedSource(60), Config{Selector: kind, Seed: 9, StatePath: statePath})
			defer s.Close()
			s.RestoreState(oldLabels(60)) // a snapshot, so both calls below append
			b, err := s.Next(8, "p")
			if err != nil {
				t.Fatal(err)
			}
			var fb []Feedback
			for i, c := range b.Candidates {
				fb = append(fb, Feedback{SampleKey: c.SampleKey, Label: "x", ModelCorrect: i%2 == 0})
			}
			if res, err := s.ApplyFeedback(fb); err != nil || res.Applied != len(fb) {
				t.Fatalf("feedback: %+v, %v", res, err)
			}
			sels := logSelectors(t, statePath)
			if len(sels) != 2 {
				t.Fatalf("log holds %d records, want the pull's and the feedback's", len(sels))
			}
			if !bytes.Equal(sels[0], sels[1]) {
				t.Fatalf("feedback moved the selector:\n pull     %s\n feedback %s", sels[0], sels[1])
			}
		})
	}
}
