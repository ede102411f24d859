// Package newsroom is the TV-news domain of the paper's evaluation
// (§5.1): consistency assertions over a face-analysis pipeline. The
// paper's collaborators could not share training code, so this domain
// participates only in the precision (Table 3), LOC (Table 2) and
// monitoring experiments — exactly as in the paper.
package newsroom

import (
	"omg/internal/consistency"
	"omg/internal/tvnews"
)

// AttrKeys are the attributes asserted consistent per identifier.
var AttrKeys = []string{"identity", "gender", "hair"}

// Domain holds the generated archive and the consistency generator.
type Domain struct {
	Archive tvnews.Archive
	gen     *consistency.Generator[tvnews.Detection]
}

// New generates the archive segment and builds the §4 consistency
// assertion: identifier = (scene, position slot) — faces that highly
// overlap within the same scene — with identity, gender and hair colour
// as the consistent attributes.
func New(cfg tvnews.Config) *Domain {
	return &Domain{
		Archive: tvnews.Generate(cfg),
		gen:     consistency.MustNew(ConsistencyConfig()),
	}
}

// ConsistencyConfig is the TV-news consistency registration.
func ConsistencyConfig() consistency.Config[tvnews.Detection] {
	return consistency.Config[tvnews.Detection]{
		Name:     "news",
		Id:       func(d tvnews.Detection) string { return d.ID() },
		Attrs:    func(d tvnews.Detection) map[string]string { return d.Attrs() },
		AttrKeys: AttrKeys,
		// Scene cuts are frequent; T = one second (paper §4.1 suggests
		// one second for TV footage). With 3-second sampling temporal
		// assertions rarely apply; attribute consistency is the workhorse.
		T: 1,
	}
}

// Stream converts the archive's detections into the consistency stream
// (one entry per sampled frame).
func (d *Domain) Stream() []consistency.TimedOutputs[tvnews.Detection] {
	byFrame := make(map[int][]tvnews.Detection)
	maxFrame := 0
	for _, det := range d.Archive.Detections {
		byFrame[det.Frame] = append(byFrame[det.Frame], det)
		if det.Frame > maxFrame {
			maxFrame = det.Frame
		}
	}
	out := make([]consistency.TimedOutputs[tvnews.Detection], maxFrame+1)
	for f := 0; f <= maxFrame; f++ {
		out[f] = consistency.TimedOutputs[tvnews.Detection]{
			Index:   f,
			Time:    float64(f) * 3,
			Outputs: byFrame[f],
		}
	}
	return out
}

// PrecisionSample is one attribute-consistency firing with ground-truth
// verdicts for the two Table 3 precision columns.
type PrecisionSample struct {
	// Attr is the inconsistent attribute key.
	Attr string
	// Frame is where the minority output sits.
	Frame int
	// ModelError: the flagged output's predicted attribute differs from
	// ground truth (the "model output only" column).
	ModelError bool
	// PipelineError: the flagged output is wrong OR the identifier
	// grouping mixed two people (the "identifier and output" column).
	PipelineError bool
}

// CollectPrecisionSamples runs the correction rules over the stream and
// scores every flagged output against ground truth.
func (d *Domain) CollectPrecisionSamples() []PrecisionSample {
	stream := d.Stream()
	props := d.gen.WeakLabels(stream)

	// Index detections by (frame, output index).
	byFrame := make(map[int][]tvnews.Detection)
	for _, det := range d.Archive.Detections {
		byFrame[det.Frame] = append(byFrame[det.Frame], det)
	}

	truth := func(det tvnews.Detection, key string) string {
		switch key {
		case "identity":
			return det.TrueIdentity
		case "gender":
			return det.TrueGender
		case "hair":
			return det.TrueHair
		}
		return ""
	}

	var out []PrecisionSample
	for _, p := range props {
		if p.Kind != consistency.ModifyAttr {
			continue
		}
		dets := byFrame[p.Sample]
		if p.OutputIdx < 0 || p.OutputIdx >= len(dets) {
			continue
		}
		det := dets[p.OutputIdx]
		predicted := det.Attrs()[p.Key]
		wrong := predicted != truth(det, p.Key)
		out = append(out, PrecisionSample{
			Attr:          p.Key,
			Frame:         p.Sample,
			ModelError:    wrong,
			PipelineError: wrong, // slots are scene-stable in the simulator
		})
	}
	return out
}
