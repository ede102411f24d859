// Package nightstreet is the video-analytics domain of the paper's
// evaluation (§5.1): an SSD-style object detector deployed on a fixed
// street camera, with the three model assertions the paper deploys —
// multibox (three vehicles should not highly overlap), and the
// consistency-API-generated flicker and appear assertions over tracker
// identities.
package nightstreet

import (
	"fmt"

	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/consistency"
	"omg/internal/detection"
	"omg/internal/geometry"
	"omg/internal/simrand"
	"omg/internal/track"
	"omg/internal/video"
)

// TrackedBox is one detection with its tracker-assigned identity: the
// output record the consistency assertions run over. The paper assigns
// "a new identifier for each box that appears and the same identifier as
// it persists through the video".
type TrackedBox struct {
	TrackID int
	Class   string
	Box     geometry.Box2D
	Score   float64
	// GTTrack and Provenance are simulation provenance for experiment
	// accounting (precision measurement against ground truth); no
	// algorithm reads them.
	GTTrack    int
	Provenance detection.Provenance
	Flipped    bool
}

// Assertion indices within severity vectors (suite order).
const (
	IdxFlicker = iota
	IdxAppear
	IdxMultibox
	NumAssertions
)

// AssertionNames lists the deployed assertions in severity-vector order.
var AssertionNames = []string{"flicker", "appear", "multibox"}

// Config parameterises the domain.
type Config struct {
	// Seed drives scene generation and the model's error identity.
	Seed int64
	// PoolFrames is the unlabeled-pool size (a day of deployment video).
	PoolFrames int
	// TestFrames is the held-out test video size (a different day).
	TestFrames int
	// FlickerT is the temporal-consistency threshold in seconds. Default
	// 0.7 (7 frames at 10 fps).
	FlickerT float64
	// MultiboxIoU is the pairwise-overlap threshold for the multibox
	// assertion. Default 0.4.
	MultiboxIoU float64
}

func (c Config) withDefaults() Config {
	if c.PoolFrames <= 0 {
		c.PoolFrames = 3000
	}
	if c.TestFrames <= 0 {
		c.TestFrames = 800
	}
	if c.FlickerT <= 0 {
		c.FlickerT = 0.7
	}
	if c.MultiboxIoU <= 0 {
		c.MultiboxIoU = 0.4
	}
	return c
}

// Domain implements activelearn.Domain for the night-street task.
type Domain struct {
	cfg   Config
	pool  []video.Frame
	test  []video.Frame
	model *detection.Model
	gen   *consistency.Generator[TrackedBox]
}

// New builds the domain: generates the pool and test videos and a fresh
// ("pretrained on still images") detector.
func New(cfg Config) *Domain {
	cfg = cfg.withDefaults()
	d := &Domain{cfg: cfg}
	d.pool = video.Generate(video.Config{
		Seed:      simrand.DeriveSeed(cfg.Seed, "night-street-pool"),
		NumFrames: cfg.PoolFrames,
	})
	d.test = video.Generate(video.Config{
		Seed:      simrand.DeriveSeed(cfg.Seed, "night-street-test"),
		NumFrames: cfg.TestFrames,
	})
	d.gen = consistency.MustNew(ConsistencyConfig(cfg.FlickerT))
	d.Reset(cfg.Seed)
	return d
}

// ConsistencyConfig is the paper's §4 consistency-assertion registration
// for traffic-camera video: the tracker identity is the identifier, the
// detected class is an attribute, and T detects flickering.
func ConsistencyConfig(t float64) consistency.Config[TrackedBox] {
	return consistency.Config[TrackedBox]{
		Name:     "vehicle",
		Id:       func(b TrackedBox) string { return fmt.Sprintf("t%d", b.TrackID) },
		Attrs:    func(b TrackedBox) map[string]string { return map[string]string{"class": b.Class} },
		AttrKeys: []string{"class"},
		T:        t,
		WeakLabel: func(id string, gapIndex int, before, after consistency.TimedOutputs[TrackedBox]) (TrackedBox, bool) {
			return InterpolateBox(id, gapIndex, before, after)
		},
	}
}

// InterpolateBox is the domain's WeakLabel function: it synthesises the
// missing box for a flicker gap by linearly interpolating the identifier's
// boxes on the surrounding frames — the paper's example of domain-specific
// logic ("averaging the locations of the object on nearby video frames").
func InterpolateBox(id string, gapIndex int, before, after consistency.TimedOutputs[TrackedBox]) (TrackedBox, bool) {
	var a, b *TrackedBox
	for i := range before.Outputs {
		if fmt.Sprintf("t%d", before.Outputs[i].TrackID) == id {
			a = &before.Outputs[i]
		}
	}
	for i := range after.Outputs {
		if fmt.Sprintf("t%d", after.Outputs[i].TrackID) == id {
			b = &after.Outputs[i]
		}
	}
	if a == nil || b == nil {
		return TrackedBox{}, false
	}
	span := after.Index - before.Index
	if span <= 0 {
		return TrackedBox{}, false
	}
	frac := float64(gapIndex-before.Index) / float64(span)
	lerp := func(x, y float64) float64 { return x + (y-x)*frac }
	box := geometry.Box2D{
		X1: lerp(a.Box.X1, b.Box.X1),
		Y1: lerp(a.Box.Y1, b.Box.Y1),
		X2: lerp(a.Box.X2, b.Box.X2),
		Y2: lerp(a.Box.Y2, b.Box.Y2),
	}
	return TrackedBox{
		TrackID: a.TrackID,
		Class:   a.Class,
		Box:     box,
		Score:   (a.Score + b.Score) / 2,
		GTTrack: a.GTTrack,
	}, true
}

// Multibox is the paper's custom domain-knowledge assertion: it returns
// the number of triples of boxes that pairwise overlap with IoU above the
// threshold — "three vehicles should not highly overlap" (Figure 7).
func Multibox(boxes []TrackedBox, iouThreshold float64) float64 {
	raw := make([]geometry.Box2D, len(boxes))
	for i, b := range boxes {
		raw[i] = b.Box
	}
	return float64(geometry.CountOverlappingTriples(raw, iouThreshold))
}

// Name implements activelearn.Domain.
func (d *Domain) Name() string { return "night-street" }

// NumAssertions implements activelearn.Domain.
func (d *Domain) NumAssertions() int { return NumAssertions }

// PoolSize implements activelearn.Domain.
func (d *Domain) PoolSize() int { return len(d.pool) }

// Reset implements activelearn.Domain: a fresh detector whose systematic
// errors are determined by the trial seed.
func (d *Domain) Reset(seed int64) {
	d.model = detection.New(simrand.DeriveSeed(seed, "night-street-model"), detection.DefaultParams())
}

// Pool exposes the unlabeled pool frames.
func (d *Domain) Pool() []video.Frame { return d.pool }

// Train implements activelearn.Domain.
func (d *Domain) Train(indices []int) {
	frames := make([]video.Frame, 0, len(indices))
	for _, i := range indices {
		if i >= 0 && i < len(d.pool) {
			frames = append(frames, d.pool[i])
		}
	}
	d.model.Train(frames, 1)
}

// Evaluate implements activelearn.Domain: mAP (0..1) on the test video.
func (d *Domain) Evaluate() float64 {
	return d.model.EvaluateMAP(d.test)
}

// DetectTracked runs the detector over frames and assigns tracker
// identities, returning the per-frame tracked outputs as a consistency
// stream.
func (d *Domain) DetectTracked(frames []video.Frame) []consistency.TimedOutputs[TrackedBox] {
	dets := d.model.DetectAll(frames)
	obs := make([][]track.Observation, len(frames))
	for i, frameDets := range dets {
		for j, det := range frameDets {
			obs[i] = append(obs[i], track.Observation{
				Box:   det.Box,
				Class: det.Class,
				Score: det.Score,
				Ref:   j,
			})
		}
	}
	trackedPerFrame, _ := track.TrackAll(obs)
	stream := make([]consistency.TimedOutputs[TrackedBox], len(frames))
	for i, frame := range frames {
		s := consistency.TimedOutputs[TrackedBox]{Index: frame.Index, Time: frame.Time}
		for _, to := range trackedPerFrame[i] {
			det := dets[i][to.Ref]
			s.Outputs = append(s.Outputs, TrackedBox{
				TrackID:    to.TrackID,
				Class:      det.Class,
				Box:        det.Box,
				Score:      det.Score,
				GTTrack:    det.GTTrack,
				Provenance: det.Provenance,
				Flipped:    det.Flipped,
			})
		}
		stream[i] = s
	}
	return stream
}

// Assess implements activelearn.Domain: re-run the detector and all three
// assertions over the pool, producing per-frame severity vectors and
// uncertainty scores.
func (d *Domain) Assess() []bandit.Candidate {
	stream := d.DetectTracked(d.pool)

	sev := make([]assertion.Vector, len(d.pool))
	for i := range sev {
		sev[i] = make(assertion.Vector, NumAssertions)
	}
	// Flicker severity is attributed to the gap frames: those are the
	// frames whose labels teach the model about the miss.
	for _, ev := range d.gen.FlickerEvents(stream) {
		for _, gi := range ev.Gap {
			if gi >= 0 && gi < len(sev) {
				sev[gi][IdxFlicker]++
			}
		}
	}
	for _, ev := range d.gen.AppearEvents(stream) {
		for _, si := range ev.Samples {
			if si >= 0 && si < len(sev) {
				sev[si][IdxAppear]++
			}
		}
	}
	cands := make([]bandit.Candidate, len(d.pool))
	for i, s := range stream {
		sev[i][IdxMultibox] = Multibox(s.Outputs, d.cfg.MultiboxIoU)
		cands[i] = bandit.Candidate{
			Index:       i,
			Severities:  sev[i],
			Uncertainty: FrameUncertainty(s.Outputs),
		}
	}
	return cands
}

// FrameUncertainty is the "least confident" frame score used by the
// uncertainty-sampling baseline: one minus the confidence of the frame's
// least confident detection; frames with no detections score 0 (nothing
// to be uncertain about, matching least-confident sampling's blindness to
// missed objects).
func FrameUncertainty(boxes []TrackedBox) float64 {
	if len(boxes) == 0 {
		return 0
	}
	minScore := boxes[0].Score
	for _, b := range boxes[1:] {
		if b.Score < minScore {
			minScore = b.Score
		}
	}
	return 1 - minScore
}

// Suite returns the runtime-monitoring assertion suite (window-based),
// in the same order as the severity vectors: flicker, appear, multibox.
// The consistency assertions come from the §4 generator; multibox is the
// custom registered function.
func (d *Domain) Suite() *assertion.Suite {
	var flicker, appear assertion.Assertion
	for _, a := range d.gen.Assertions() {
		switch a.Name() {
		case "vehicle:flicker":
			flicker = a
		case "vehicle:appear":
			appear = a
		}
	}
	iou := d.cfg.MultiboxIoU
	multibox := assertion.New("vehicle:multibox", func(window []assertion.Sample) float64 {
		if len(window) == 0 {
			return 0
		}
		boxes, _ := window[len(window)-1].Output.([]TrackedBox)
		return Multibox(boxes, iou)
	})
	return assertion.NewSuite(flicker, appear, multibox)
}
