// Package detection implements a trainable *simulated* 2D object detector:
// the stand-in for the SSD model in the paper's video-analytics and AV
// experiments (§5.1). The paper's trained models and video corpora are not
// reproducible offline; what its results depend on is the structure of the
// model's mistakes, which the simulator reproduces directly.
//
// The detector's behaviour is governed by a set of systematic error modes
// (transient flicker misses, duplicate "multibox" detections, class flips,
// context-dependent misses, false positives, localisation jitter). Each
// mode has an error rate that decays exponentially with the model's
// *effective exposure* to training examples exhibiting that mode, giving
// the diminishing-returns (submodular) improvement structure the paper's
// BAL algorithm assumes (§3). Error events are realised deterministically
// by hashing (seed, mode, track, frame) against the current rate, so
// training monotonically removes coherent sets of errors — the analogue of
// fixing a systematic failure mode in a real model.
//
// Crucially for the paper's Figure 3, *systematic* errors (duplicates,
// flicker-adjacent boxes, class flips) draw confidence from the same
// high-confidence distribution as true positives: they are
// high-confidence errors that uncertainty-based monitoring cannot see.
package detection

import (
	"fmt"
	"math"
	"sort"

	"omg/internal/geometry"
	"omg/internal/simrand"
	"omg/internal/video"
)

// Mode identifies one systematic error mode of the simulated detector.
type Mode int

const (
	// ModeFlicker is a transient, per-frame miss of an otherwise-detected
	// object: the cause of the paper's flickering boxes (Figure 1).
	ModeFlicker Mode = iota
	// ModeDuplicate emits extra highly-overlapping boxes for one object:
	// the paper's multibox error (Figure 7).
	ModeDuplicate
	// ModeClassFlip outputs the wrong class for an object on one frame.
	ModeClassFlip
	// ModeMissSmall persistently misses small (distant) objects.
	ModeMissSmall
	// ModeMissLowContrast persistently misses poorly-lit objects.
	ModeMissLowContrast
	// ModeMissOccluded misses objects while they are occluded.
	ModeMissOccluded
	// ModeFalsePositive hallucinates background boxes.
	ModeFalsePositive
	// ModeLocalization adds jitter to box corners.
	ModeLocalization
	numModes
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeFlicker:
		return "flicker"
	case ModeDuplicate:
		return "duplicate"
	case ModeClassFlip:
		return "class-flip"
	case ModeMissSmall:
		return "miss-small"
	case ModeMissLowContrast:
		return "miss-low-contrast"
	case ModeMissOccluded:
		return "miss-occluded"
	case ModeFalsePositive:
		return "false-positive"
	case ModeLocalization:
		return "localization"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ModeParams sets one error mode's learning curve: the rate starts at
// Base and decays toward Floor with time constant Tau (in units of
// effective exposure):
//
//	rate = Floor + (Base - Floor) * exp(-exposure / Tau)
type ModeParams struct {
	Base, Floor, Tau float64
}

// Params configures the detector.
type Params struct {
	Modes map[Mode]ModeParams
	// MaxFPPerFrame bounds false positives per frame (default 3).
	MaxFPPerFrame int
}

// DefaultParams returns the error-mode configuration calibrated for the
// night-street reproduction: a pretrained-on-still-images detector
// deployed on video, with substantial flicker/duplicate/miss rates that
// fine-tuning on in-domain data can reduce.
func DefaultParams() Params {
	return Params{
		Modes: map[Mode]ModeParams{
			// Systematic, in-domain-fixable errors (what assertions
			// target): moderate rates, moderately fast learning curves.
			ModeFlicker:   {Base: 0.18, Floor: 0.005, Tau: 120},
			ModeDuplicate: {Base: 0.16, Floor: 0.005, Tau: 120},
			ModeClassFlip: {Base: 0.12, Floor: 0.01, Tau: 300},
			// Hard-context misses: high rates, slow learning (rare hard
			// examples need many labels).
			ModeMissSmall:       {Base: 0.62, Floor: 0.12, Tau: 500},
			ModeMissLowContrast: {Base: 0.52, Floor: 0.10, Tau: 500},
			ModeMissOccluded:    {Base: 0.45, Floor: 0.15, Tau: 400},
			ModeFalsePositive:   {Base: 0.07, Floor: 0.01, Tau: 350},
			ModeLocalization:    {Base: 0.30, Floor: 0.06, Tau: 600},
		},
		MaxFPPerFrame: 3,
	}
}

// AVCameraParams returns the error-mode configuration for the camera
// detector in the AV domain: the domain shift from still images to
// vehicle-mounted cameras is larger than to a fixed traffic camera, so
// context misses are heavier and learning curves slower — matching the
// paper's low absolute NuScenes SSD mAP (10-16%).
func AVCameraParams() Params {
	return Params{
		Modes: map[Mode]ModeParams{
			ModeFlicker:         {Base: 0.10, Floor: 0.01, Tau: 200},
			ModeDuplicate:       {Base: 0.12, Floor: 0.005, Tau: 150},
			ModeClassFlip:       {Base: 0.15, Floor: 0.02, Tau: 400},
			ModeMissSmall:       {Base: 0.75, Floor: 0.15, Tau: 600},
			ModeMissLowContrast: {Base: 0.30, Floor: 0.10, Tau: 500},
			ModeMissOccluded:    {Base: 0.60, Floor: 0.20, Tau: 500},
			ModeFalsePositive:   {Base: 0.10, Floor: 0.02, Tau: 350},
			ModeLocalization:    {Base: 0.35, Floor: 0.08, Tau: 700},
		},
		MaxFPPerFrame: 3,
	}
}

// Provenance records why the simulator emitted a detection. It exists for
// experiment accounting and tests only — real deployments do not know it,
// and no assertion or selection algorithm in this repository reads it.
type Provenance int

const (
	// ProvTruePositive is a detection of a real object.
	ProvTruePositive Provenance = iota
	// ProvDuplicate is an extra box from the duplicate error mode.
	ProvDuplicate
	// ProvFalsePositive is a hallucinated background box.
	ProvFalsePositive
)

// Detection is one output box of the simulated detector.
type Detection struct {
	Box   geometry.Box2D
	Class string
	Score float64
	// Provenance is simulation-internal ground truth about the error
	// source (see Provenance). Kept out of all algorithmic paths.
	Provenance Provenance
	// GTTrack is the ground-truth track this detection corresponds to
	// (0 for false positives). Simulation-internal, like Provenance.
	GTTrack int
	// Flipped marks a class-flip error. Simulation-internal.
	Flipped bool
}

// Model is the trainable simulated detector. The zero value is unusable;
// construct with New. Model is not safe for concurrent mutation; Detect is
// read-only and may be called concurrently with other Detects.
type Model struct {
	seed     int64
	params   Params
	exposure map[Mode]float64
}

// New returns a detector with the given identity seed and parameters. Two
// models with the same seed and parameters behave identically; the seed
// determines *which* objects/frames the systematic errors strike.
func New(seed int64, params Params) *Model {
	if params.Modes == nil {
		params = DefaultParams()
	}
	if params.MaxFPPerFrame <= 0 {
		params.MaxFPPerFrame = 3
	}
	return &Model{
		seed:     seed,
		params:   params,
		exposure: make(map[Mode]float64),
	}
}

// Rate returns the current error rate for the mode.
func (m *Model) Rate(mode Mode) float64 {
	p, ok := m.params.Modes[mode]
	if !ok {
		return 0
	}
	return p.Floor + (p.Base-p.Floor)*math.Exp(-m.exposure[mode]/p.Tau)
}

// event domains keep hash streams for different decisions disjoint.
const (
	evFlicker int64 = iota + 1
	evDuplicate
	evClassFlip
	evMissSmall
	evMissLowContrast
	evMissOccluded
	evFalsePositive
	evConfidence
	evJitter
	evFPPlacement
	evDupGeometry
	evClassFlipTarget
)

// realized reports whether the error event identified by (ev, a, b) is
// realised under the current rate for the mode.
func (m *Model) realized(mode Mode, ev, a, b int64) bool {
	return simrand.HashUniform(m.seed, ev, a, b) < m.Rate(mode)
}

// Detect runs the simulated detector on one ground-truth frame.
func (m *Model) Detect(frame video.Frame) []Detection {
	var out []Detection
	fi := int64(frame.Index)

	for _, obj := range frame.Objects {
		tid := int64(obj.TrackID)

		// Persistent context misses: realised per-track (frame-independent)
		// so a hard object is missed for its whole life, not flickering.
		if obj.Small && m.realized(ModeMissSmall, evMissSmall, tid, 0) {
			continue
		}
		if obj.LowContrast && m.realized(ModeMissLowContrast, evMissLowContrast, tid, 0) {
			continue
		}
		// Occlusion misses are realised per *block* of frames, not per
		// frame: a real detector loses an occluded object for a sustained
		// stretch, which keeps these misses distinct from sub-second
		// flicker (they exceed the temporal-consistency threshold).
		if obj.Occluded && m.realized(ModeMissOccluded, evMissOccluded, tid, fi/occlusionBlock) {
			continue
		}
		// Transient flicker miss.
		if m.realized(ModeFlicker, evFlicker, tid, fi) {
			continue
		}

		det := m.emit(obj, fi, tid)
		out = append(out, det)

		// Duplicate (multibox) errors: two extra near-copies, so three
		// boxes highly overlap — the paper's multibox signature.
		if m.realized(ModeDuplicate, evDuplicate, tid, fi) {
			for k := int64(0); k < 2; k++ {
				dup := det
				g := simrand.HashRNG(m.seed, evDupGeometry, tid, fi*8+k)
				dx := g.Uniform(-0.12, 0.12) * det.Box.Width()
				dy := g.Uniform(-0.12, 0.12) * det.Box.Height()
				dup.Box = det.Box.Translate(dx, dy).Scale(g.Uniform(0.9, 1.1))
				dup.Score = clamp01(det.Score + g.Uniform(-0.08, 0.02))
				dup.Provenance = ProvDuplicate
				out = append(out, dup)
			}
		}
	}

	// False positives: up to MaxFPPerFrame independent hallucinations.
	for k := 0; k < m.params.MaxFPPerFrame; k++ {
		if !m.realized(ModeFalsePositive, evFalsePositive, fi, int64(k)) {
			continue
		}
		g := simrand.HashRNG(m.seed, evFPPlacement, fi, int64(k))
		w := g.Uniform(40, 140)
		h := w * g.Uniform(0.5, 0.9)
		cx := g.Uniform(w/2, 1280-w/2)
		cy := g.Uniform(h/2, 720-h/2)
		out = append(out, Detection{
			Box:        geometry.BoxFromCenter(cx, cy, w, h),
			Class:      video.Classes[g.Choice(len(video.Classes))],
			Score:      clamp01(g.Beta(2.5, 4)),
			Provenance: ProvFalsePositive,
		})
	}
	return out
}

// emit builds the (possibly corrupted) detection for a visible object.
func (m *Model) emit(obj video.Object, fi, tid int64) Detection {
	det := Detection{
		Class:      obj.Class,
		Provenance: ProvTruePositive,
		GTTrack:    obj.TrackID,
	}

	// Localisation jitter scaled by the localisation error rate.
	jitter := m.Rate(ModeLocalization)
	g := simrand.HashRNG(m.seed, evJitter, tid, fi)
	dx := g.Gaussian(0, jitter*0.12) * obj.Box.Width()
	dy := g.Gaussian(0, jitter*0.12) * obj.Box.Height()
	scale := 1 + g.Gaussian(0, jitter*0.1)
	if scale < 0.5 {
		scale = 0.5
	}
	det.Box = obj.Box.Translate(dx, dy).Scale(scale)

	// Class flip: systematic high-confidence error, realised per block of
	// frames (the model confuses *this* vehicle for a while, not for a
	// single frame), so within-track class inconsistency is coherent.
	if m.realized(ModeClassFlip, evClassFlip, tid, fi/classFlipBlock) {
		det.Class = flipClass(obj.Class, m.seed, tid, fi/classFlipBlock)
		det.Flipped = true
	}

	// Confidence: hard contexts draw from a low/uncertain distribution;
	// everything else — including flipped classes and (via Detect)
	// duplicates — draws from the confident distribution. That is the
	// high-confidence-error structure of Figure 3.
	cg := simrand.HashRNG(m.seed, evConfidence, tid, fi)
	if obj.Small || obj.LowContrast || obj.Occluded {
		det.Score = clamp01(cg.Beta(3.5, 3.5)) // mean 0.5: uncertain
	} else {
		det.Score = clamp01(0.5 + 0.5*cg.Beta(8, 2)) // mean 0.9: confident
	}
	return det
}

// Block sizes (in frames) over which blocky error modes persist.
const (
	occlusionBlock = 12
	classFlipBlock = 25
)

// classPrior is the approximate class frequency in the synthetic scenes;
// flips land on wrong classes proportionally to how common they are
// (detectors confuse an object with a *plausible* alternative), which
// keeps rare classes from being flooded with high-confidence false
// positives.
var classPrior = map[string]float64{"car": 0.7, "truck": 0.2, "bus": 0.1}

// flipClass deterministically picks a wrong class, weighted by class
// frequency.
func flipClass(true_ string, seed, tid, fi int64) string {
	var others []string
	for _, c := range video.Classes {
		if c != true_ {
			others = append(others, c)
		}
	}
	sort.Strings(others)
	total := 0.0
	for _, c := range others {
		total += classPrior[c]
	}
	target := simrand.HashUniform(seed, evClassFlipTarget, tid, fi) * total
	acc := 0.0
	for _, c := range others {
		acc += classPrior[c]
		if target < acc {
			return c
		}
	}
	return others[len(others)-1]
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
