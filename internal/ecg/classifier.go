package ecg

import (
	"math"

	"omg/internal/simrand"
)

// Prediction is the classifier's output for one segment.
type Prediction struct {
	Class string
	// Confidence of the predicted class.
	Confidence float64
	// Oscillated is simulation provenance: the prediction is a transient
	// flip that violates the 30-second guideline. Not read by any
	// algorithm.
	Oscillated bool
}

// ClassifierParams configures the simulated classifier's learning curves.
type ClassifierParams struct {
	// BaseError/FloorError/TauError govern the per-segment confusion rate
	// on ordinary segments (exposure unit: labeled segments).
	BaseError, FloorError, TauError float64
	// HardError is the (fixed) additional error rate on Hard segments.
	HardError float64
	// BaseOsc/FloorOsc/TauOsc govern the transient-oscillation rate — the
	// systematic error the ECG assertion catches. Oscillations are
	// high-confidence errors.
	BaseOsc, FloorOsc, TauOsc float64
	// BaseRec/FloorRec/TauRec govern the *record-level* confusion rate:
	// the model systematically misreads some whole recordings (most
	// segments shifted toward a confusable class), which is what drives
	// record-level accuracy (exposure unit: labeled records).
	BaseRec, FloorRec, TauRec float64
}

// DefaultClassifierParams is calibrated so that a classifier bootstrapped
// on a few hundred records sits in the low-60s percent record accuracy
// (the paper's Figure 5 starting point) and climbs into the low-70s over
// five 100-record labeling rounds.
func DefaultClassifierParams() ClassifierParams {
	return ClassifierParams{
		BaseError:  0.12,
		FloorError: 0.05,
		TauError:   8000,
		HardError:  0.35,
		BaseOsc:    0.04,
		FloorOsc:   0.01,
		TauOsc:     110,
		BaseRec:    0.45,
		FloorRec:   0.15,
		TauRec:     1100,
	}
}

// Classifier is the trainable simulated ECG model.
type Classifier struct {
	seed     int64
	params   ClassifierParams
	expError float64
	expOsc   float64
	expRec   float64
}

// NewClassifier builds a classifier with the given identity seed.
func NewClassifier(seed int64, params ClassifierParams) *Classifier {
	if params.BaseError == 0 && params.BaseOsc == 0 {
		params = DefaultClassifierParams()
	}
	return &Classifier{seed: seed, params: params}
}

// ErrorRate returns the current confusion rate on ordinary segments.
func (c *Classifier) ErrorRate() float64 {
	p := c.params
	return p.FloorError + (p.BaseError-p.FloorError)*math.Exp(-c.expError/p.TauError)
}

// OscillationRate returns the current transient-flip rate.
func (c *Classifier) OscillationRate() float64 {
	p := c.params
	return p.FloorOsc + (p.BaseOsc-p.FloorOsc)*math.Exp(-c.expOsc/p.TauOsc)
}

// RecordErrorRate returns the current record-level confusion rate.
func (c *Classifier) RecordErrorRate() float64 {
	p := c.params
	if p.BaseRec <= 0 {
		return 0
	}
	return p.FloorRec + (p.BaseRec-p.FloorRec)*math.Exp(-c.expRec/p.TauRec)
}

const (
	evEErr int64 = iota + 200
	evEErrTarget
	evEOsc
	evEOscTarget
	evEConf
	evERec
	evERecTarget
	evERecSeg
)

// recordConfused reports whether the record is systematically misread
// under the current record-error rate, and the class it is pulled
// toward.
func (c *Classifier) recordConfused(record Record) (bool, string) {
	ri := int64(record.Index)
	if simrand.HashUniform(c.seed, evERec, ri, 0) >= c.RecordErrorRate() {
		return false, ""
	}
	u := simrand.HashUniform(c.seed, evERecTarget, ri, 0)
	return true, confusable(record.Label, u)
}

// confusable returns the class an erroneous prediction lands on: rhythm
// confusions go to plausible neighbours (A↔O↔N, anything→~ rarely).
func confusable(true_ string, u float64) string {
	var targets []string
	switch true_ {
	case "N":
		targets = []string{"O", "A", "~"}
	case "A":
		targets = []string{"O", "N", "~"}
	case "O":
		targets = []string{"N", "A", "~"}
	default: // "~"
		targets = []string{"O", "N", "A"}
	}
	// Weight the first target most heavily.
	switch {
	case u < 0.6:
		return targets[0]
	case u < 0.9:
		return targets[1]
	default:
		return targets[2]
	}
}

// ClassifySegment predicts one segment of one record.
func (c *Classifier) ClassifySegment(record Record, seg Segment) Prediction {
	ri, si := int64(record.Index), int64(seg.Index)

	// Record-level confusion: the model systematically misreads this
	// recording, pulling most segments toward a confusable class with
	// middling confidence.
	if confused, target := c.recordConfused(record); confused {
		if simrand.HashUniform(c.seed, evERecSeg, ri, si) < 0.75 {
			cg := simrand.HashRNG(c.seed, evEConf, ri, si)
			return Prediction{Class: target, Confidence: 0.4 + 0.3*cg.Beta(3, 3)}
		}
	}

	// Oscillation: a transient flip on a segment whose neighbours are
	// predicted consistently — only interior segments oscillate, so the
	// flip is always A→B→A-shaped in the prediction timeline. Unstable
	// (record-confused) recordings oscillate at several times the rate.
	oscRate := c.OscillationRate()
	if confused, _ := c.recordConfused(record); confused {
		oscRate *= 5
		if oscRate > 0.5 {
			oscRate = 0.5
		}
	}
	interior := seg.Index > 0 && seg.Index < len(record.Segments)-1
	if interior && simrand.HashUniform(c.seed, evEOsc, ri, si) < oscRate {
		u := simrand.HashUniform(c.seed, evEOscTarget, ri, si)
		cg := simrand.HashRNG(c.seed, evEConf, ri, si)
		return Prediction{
			Class: confusable(seg.True, u),
			// Oscillations are systematic high-confidence errors.
			Confidence: 0.6 + 0.4*cg.Beta(8, 2),
			Oscillated: true,
		}
	}

	errRate := c.ErrorRate()
	if seg.Hard {
		errRate += c.params.HardError
		if errRate > 0.95 {
			errRate = 0.95
		}
	}
	cg := simrand.HashRNG(c.seed, evEConf, ri, si)
	if simrand.HashUniform(c.seed, evEErr, ri, si) < errRate {
		u := simrand.HashUniform(c.seed, evEErrTarget, ri, si)
		conf := 0.35 + 0.3*cg.Beta(3, 3) // ordinary confusions are uncertain
		if seg.Hard {
			conf = 0.3 + 0.25*cg.Beta(3, 3)
		}
		return Prediction{Class: confusable(seg.True, u), Confidence: conf}
	}
	conf := 0.55 + 0.45*cg.Beta(7, 2)
	if seg.Hard {
		conf = 0.4 + 0.3*cg.Beta(3, 3)
	}
	return Prediction{Class: seg.True, Confidence: conf}
}

// Classify predicts every segment of a record.
func (c *Classifier) Classify(record Record) []Prediction {
	out := make([]Prediction, len(record.Segments))
	for i, seg := range record.Segments {
		out[i] = c.ClassifySegment(record, seg)
	}
	return out
}

// RecordPrediction aggregates segment predictions into the record-level
// class (majority vote, ties toward Classes order) and the mean
// confidence.
func RecordPrediction(preds []Prediction) (string, float64) {
	counts := make(map[string]int)
	sum := 0.0
	for _, p := range preds {
		counts[p.Class]++
		sum += p.Confidence
	}
	best, bestN := "", -1
	for _, c := range Classes {
		if counts[c] > bestN {
			best, bestN = c, counts[c]
		}
	}
	mean := 0.0
	if len(preds) > 0 {
		mean = sum / float64(len(preds))
	}
	return best, mean
}

// Accuracy evaluates record-level accuracy over a test set.
func (c *Classifier) Accuracy(records []Record) float64 {
	if len(records) == 0 {
		return 0
	}
	correct := 0
	for _, r := range records {
		pred, _ := RecordPrediction(c.Classify(r))
		if pred == r.Label {
			correct++
		}
	}
	return float64(correct) / float64(len(records))
}

// Train fine-tunes on labeled records: segment-confusion exposure accrues
// per labeled segment, record-confusion exposure per labeled record —
// with realised failures (a record the model currently misreads, an
// oscillation it currently produces) teaching extra, which is why
// assertion-flagged and low-confidence records are both more valuable
// than random ones.
func (c *Classifier) Train(records []Record, weight float64) {
	if weight <= 0 {
		return
	}
	var segs, oscs, recs float64
	for _, r := range records {
		recs++
		if confused, _ := c.recordConfused(r); confused {
			recs += 2 // an observed systematic failure is a strong signal
		}
		for _, seg := range r.Segments {
			segs++
			interior := seg.Index > 0 && seg.Index < len(r.Segments)-1
			if interior && simrand.HashUniform(c.seed, evEOsc, int64(r.Index), int64(seg.Index)) < c.OscillationRate() {
				oscs++
			}
		}
	}
	c.expError += segs * weight
	c.expOsc += oscs * weight * 4
	c.expRec += recs * weight
}

// TrainWeakOscillation applies weak labels generated from the 30-second
// consistency assertion's majority correction: count corrected segments.
// Weak corrections mainly stabilise the oscillation mode and carry a
// little record-level information (the paper's ECG weak-supervision gain
// is modest: 70.7% → 72.1%).
func (c *Classifier) TrainWeakOscillation(count int) {
	if count <= 0 {
		return
	}
	const weakWeight = 0.45
	c.expOsc += float64(count) * weakWeight * 4
	c.expError += float64(count) * weakWeight * 0.5
	c.expRec += float64(count) * weakWeight * 0.1
}
