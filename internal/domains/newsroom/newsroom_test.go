package newsroom

import (
	"testing"

	"omg/internal/assertion"
	"omg/internal/tvnews"
)

func smallDomain(t *testing.T) *Domain {
	t.Helper()
	return New(tvnews.Config{Seed: 1, Hours: 0.5})
}

func TestSuiteContents(t *testing.T) {
	d := smallDomain(t)
	names := assertion.NewSuite(d.gen.Assertions()...).Names()
	want := map[string]bool{
		"news:attr:identity": true, "news:attr:gender": true,
		"news:attr:hair": true, "news:flicker": true, "news:appear": true,
	}
	if len(names) != len(want) {
		t.Fatalf("suite = %v", names)
	}
	for _, n := range names {
		if !want[n] {
			t.Fatalf("unexpected assertion %q", n)
		}
	}
}

func TestStreamShape(t *testing.T) {
	d := smallDomain(t)
	stream := d.Stream()
	if len(stream) != d.Archive.NumFrames {
		t.Fatalf("stream = %d frames, want %d", len(stream), d.Archive.NumFrames)
	}
	total := 0
	for i, s := range stream {
		if s.Index != i || s.Time != float64(i)*3 {
			t.Fatalf("stream[%d] metadata wrong", i)
		}
		total += len(s.Outputs)
	}
	if total != len(d.Archive.Detections) {
		t.Fatalf("stream outputs %d != detections %d", total, len(d.Archive.Detections))
	}
}

func TestCollectPrecisionSamples(t *testing.T) {
	d := New(tvnews.Config{Seed: 2, Hours: 2})
	samples := d.CollectPrecisionSamples()
	if len(samples) == 0 {
		t.Fatal("no inconsistencies flagged in 2 hours of footage")
	}
	errs := 0
	attrs := map[string]bool{}
	for _, s := range samples {
		attrs[s.Attr] = true
		if s.ModelError {
			errs++
		}
		if s.ModelError && !s.PipelineError {
			t.Fatal("model error must imply pipeline error")
		}
	}
	// All three attributes should produce at least one firing in 2 hours.
	for _, k := range AttrKeys {
		if !attrs[k] {
			t.Fatalf("attribute %q never flagged", k)
		}
	}
	prec := float64(errs) / float64(len(samples))
	if prec < 0.85 {
		t.Fatalf("news precision = %v, paper reports ~100%%", prec)
	}
}
