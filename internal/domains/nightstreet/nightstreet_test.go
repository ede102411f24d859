package nightstreet

import (
	"testing"

	"omg/internal/bandit"
	"omg/internal/consistency"
	"omg/internal/geometry"
)

func smallDomain(t *testing.T) *Domain {
	t.Helper()
	return New(Config{Seed: 1, PoolFrames: 400, TestFrames: 150})
}

func tb(id int, x, y, w, h float64, class string, score float64) TrackedBox {
	return TrackedBox{
		TrackID: id,
		Class:   class,
		Box:     geometry.NewBox2D(x, y, x+w, y+h),
		Score:   score,
	}
}

func TestMultiboxCountsTriples(t *testing.T) {
	boxes := []TrackedBox{
		tb(1, 0, 0, 100, 100, "car", 0.9),
		tb(2, 5, 5, 100, 100, "car", 0.8),
		tb(3, 10, 10, 100, 100, "car", 0.7),
	}
	if got := Multibox(boxes, 0.4); got != 1 {
		t.Fatalf("triple count = %v, want 1", got)
	}
}

func TestMultiboxNoTripleForPair(t *testing.T) {
	boxes := []TrackedBox{
		tb(1, 0, 0, 100, 100, "car", 0.9),
		tb(2, 5, 5, 100, 100, "car", 0.8),
		tb(3, 500, 500, 100, 100, "car", 0.7),
	}
	if got := Multibox(boxes, 0.4); got != 0 {
		t.Fatalf("triple count = %v, want 0", got)
	}
}

func TestMultiboxEmpty(t *testing.T) {
	if got := Multibox(nil, 0.4); got != 0 {
		t.Fatalf("Multibox(nil) = %v", got)
	}
}

func TestMultiboxFourBoxesCountsFourTriples(t *testing.T) {
	var boxes []TrackedBox
	for i := 0; i < 4; i++ {
		boxes = append(boxes, tb(i+1, float64(i*2), float64(i*2), 100, 100, "car", 0.9))
	}
	if got := Multibox(boxes, 0.4); got != 4 { // C(4,3)
		t.Fatalf("triple count = %v, want 4", got)
	}
}

func TestFrameUncertainty(t *testing.T) {
	if got := FrameUncertainty(nil); got != 0 {
		t.Fatalf("empty uncertainty = %v", got)
	}
	boxes := []TrackedBox{
		tb(1, 0, 0, 10, 10, "car", 0.9),
		tb(2, 50, 50, 10, 10, "car", 0.4),
	}
	if got := FrameUncertainty(boxes); got != 0.6 {
		t.Fatalf("uncertainty = %v, want 0.6", got)
	}
}

func TestInterpolateBox(t *testing.T) {
	before := consistency.TimedOutputs[TrackedBox]{
		Index:   10,
		Outputs: []TrackedBox{tb(7, 0, 0, 100, 50, "car", 0.8)},
	}
	after := consistency.TimedOutputs[TrackedBox]{
		Index:   12,
		Outputs: []TrackedBox{tb(7, 20, 0, 100, 50, "car", 0.6)},
	}
	got, ok := InterpolateBox("t7", 11, before, after)
	if !ok {
		t.Fatal("interpolation failed")
	}
	if got.Box.X1 != 10 || got.Box.X2 != 110 {
		t.Fatalf("interpolated box = %v", got.Box)
	}
	if got.Score != 0.7 {
		t.Fatalf("interpolated score = %v", got.Score)
	}
	if got.Class != "car" || got.TrackID != 7 {
		t.Fatalf("interpolated identity = %+v", got)
	}
}

func TestInterpolateBoxMissingEndpoint(t *testing.T) {
	before := consistency.TimedOutputs[TrackedBox]{Index: 10}
	after := consistency.TimedOutputs[TrackedBox]{
		Index:   12,
		Outputs: []TrackedBox{tb(7, 20, 0, 100, 50, "car", 0.6)},
	}
	if _, ok := InterpolateBox("t7", 11, before, after); ok {
		t.Fatal("interpolation with missing endpoint should abstain")
	}
}

func TestDomainInterfaceBasics(t *testing.T) {
	d := smallDomain(t)
	if d.Name() != "night-street" {
		t.Fatalf("Name = %q", d.Name())
	}
	if d.NumAssertions() != 3 {
		t.Fatalf("NumAssertions = %d", d.NumAssertions())
	}
	if d.PoolSize() != 400 {
		t.Fatalf("PoolSize = %d", d.PoolSize())
	}
}

func TestDomainEvaluateInRange(t *testing.T) {
	d := smallDomain(t)
	m := d.Evaluate()
	if m <= 0.1 || m >= 0.9 {
		t.Fatalf("pretrained mAP = %v, outside plausible band", m)
	}
}

func TestDomainAssessShape(t *testing.T) {
	d := smallDomain(t)
	cands := d.Assess()
	if len(cands) != d.PoolSize() {
		t.Fatalf("candidates = %d", len(cands))
	}
	anyFired := false
	for i, c := range cands {
		if c.Index != i {
			t.Fatalf("candidate %d has Index %d", i, c.Index)
		}
		if len(c.Severities) != NumAssertions {
			t.Fatalf("severity vector length = %d", len(c.Severities))
		}
		if c.Severities.Fired() {
			anyFired = true
		}
		if c.Uncertainty < 0 || c.Uncertainty > 1 {
			t.Fatalf("uncertainty = %v", c.Uncertainty)
		}
	}
	if !anyFired {
		t.Fatal("no assertions fired over the pool")
	}
	fired := bandit.FiredCounts(cands, NumAssertions)
	for m, f := range fired {
		if f == 0 {
			t.Fatalf("assertion %s never fired", AssertionNames[m])
		}
	}
}

func TestDomainTrainImproves(t *testing.T) {
	d := smallDomain(t)
	before := d.Evaluate()
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = i * 2
	}
	d.Train(idx)
	after := d.Evaluate()
	if after <= before {
		t.Fatalf("training did not improve mAP: %v -> %v", before, after)
	}
}

func TestDomainResetRestoresBootstrap(t *testing.T) {
	d := smallDomain(t)
	before := d.Evaluate()
	d.Train([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	d.Reset(1)
	if got := d.Evaluate(); got != before {
		t.Fatalf("Reset did not restore bootstrap state: %v vs %v", got, before)
	}
}

func TestDomainTrainIgnoresOutOfRange(t *testing.T) {
	d := smallDomain(t)
	before := d.Evaluate()
	d.Train([]int{-5, 100000})
	if got := d.Evaluate(); got != before {
		t.Fatalf("out-of-range indices changed the model")
	}
}

func TestSuiteMatchesSeverityOrder(t *testing.T) {
	d := smallDomain(t)
	suite := d.Suite()
	names := suite.Names()
	want := []string{"vehicle:flicker", "vehicle:appear", "vehicle:multibox"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("suite names = %v, want %v", names, want)
		}
	}
}

func TestRegistryHasMetadata(t *testing.T) {
	d := smallDomain(t)
	reg := d.Registry()
	if reg.Len() != 3 {
		t.Fatalf("registry size = %d", reg.Len())
	}
	e, ok := reg.Get("vehicle:multibox")
	if !ok || e.Meta.Kind != "domain-knowledge" {
		t.Fatalf("multibox meta = %+v", e.Meta)
	}
	for _, name := range reg.Names() {
		if e, _ := reg.Get(name); e.Meta.Domain != "video-analytics" {
			t.Fatalf("%s domain = %q", name, e.Meta.Domain)
		}
	}
}

func TestRunWeakSupervisionImproves(t *testing.T) {
	d := New(Config{Seed: 3, PoolFrames: 600, TestFrames: 200})
	res := d.RunWeakSupervision(300, 220)
	if res.WeakMAP <= res.PretrainedMAP {
		t.Fatalf("weak supervision did not improve: %v -> %v", res.PretrainedMAP, res.WeakMAP)
	}
	if res.AddedBoxes == 0 {
		t.Fatal("no flicker-fill weak labels generated")
	}
	if res.FramesConsumed == 0 || res.FramesConsumed > 300 {
		t.Fatalf("FramesConsumed = %d", res.FramesConsumed)
	}
	if res.RelativeGainPct <= 0 {
		t.Fatalf("relative gain = %v", res.RelativeGainPct)
	}
}

func TestCollectAssertionErrors(t *testing.T) {
	d := smallDomain(t)
	errs, all := d.CollectAssertionErrors()
	if len(errs) == 0 {
		t.Fatal("no assertion errors collected")
	}
	if len(all) == 0 {
		t.Fatal("no confidence population")
	}
	byAssertion := map[string]int{}
	modelErrs := map[string]int{}
	for _, e := range errs {
		byAssertion[e.Assertion]++
		if e.ModelError {
			modelErrs[e.Assertion]++
		}
		if e.Confidence < 0 || e.Confidence > 1 {
			t.Fatalf("confidence = %v", e.Confidence)
		}
		if e.ModelError && !e.PipelineError {
			t.Fatal("model error must imply pipeline error")
		}
	}
	for _, name := range AssertionNames {
		if byAssertion[name] == 0 {
			t.Fatalf("assertion %s produced no errors", name)
		}
	}
	// Precision sanity: flicker should be mostly true model errors.
	if prec := float64(modelErrs["flicker"]) / float64(byAssertion["flicker"]); prec < 0.5 {
		t.Fatalf("flicker precision = %v, implausibly low", prec)
	}
}

func TestDetectTrackedStreamShape(t *testing.T) {
	d := smallDomain(t)
	stream := d.DetectTracked(d.Pool())
	if len(stream) != d.PoolSize() {
		t.Fatalf("stream length = %d", len(stream))
	}
	for i, s := range stream {
		if s.Index != i {
			t.Fatalf("stream index %d != %d", s.Index, i)
		}
		for _, b := range s.Outputs {
			if b.TrackID <= 0 {
				t.Fatal("untracked output in stream")
			}
		}
	}
}
