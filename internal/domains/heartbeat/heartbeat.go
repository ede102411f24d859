// Package heartbeat is the medical-classification domain of the paper's
// evaluation (§5.1, CINC17): an atrial-fibrillation classifier over
// single-lead ECG records with a single deployed model assertion — the
// classification must not change A→B→A within a 30-second window,
// implemented with the consistency API's flicker assertion over the
// predicted class (§4.1: "we used the detected class as our identifier
// and set T to 30 seconds").
package heartbeat

import (
	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/consistency"
	"omg/internal/ecg"
	"omg/internal/simrand"
)

// NumAssertions is 1: the paper deploys a single assertion in this
// domain ("due to the limited data quantities for the ECG dataset").
const NumAssertions = 1

// AssertionName names the deployed assertion.
const AssertionName = "ecg:flicker"

// Config parameterises the domain.
type Config struct {
	Seed int64
	// PoolRecords is the unlabeled pool size (CINC17 has 8,528 records
	// split across train/validation/unlabeled/test; default 2000
	// unlabeled).
	PoolRecords int
	// TestRecords is the held-out test size. Default 800.
	TestRecords int
	// BootstrapRecords trains the initial classifier. Default 300.
	BootstrapRecords int
}

func (c Config) withDefaults() Config {
	if c.PoolRecords <= 0 {
		c.PoolRecords = 2000
	}
	if c.TestRecords <= 0 {
		c.TestRecords = 800
	}
	if c.BootstrapRecords <= 0 {
		c.BootstrapRecords = 300
	}
	return c
}

// Domain implements activelearn.Domain for the ECG task.
type Domain struct {
	cfg       Config
	pool      []ecg.Record
	test      []ecg.Record
	bootstrap []ecg.Record
	model     *ecg.Classifier
	gen       *consistency.Generator[string]
}

// New builds the domain.
func New(cfg Config) *Domain {
	cfg = cfg.withDefaults()
	d := &Domain{cfg: cfg}
	d.pool = ecg.Generate(ecg.Config{
		Seed:       simrand.DeriveSeed(cfg.Seed, "ecg-pool"),
		NumRecords: cfg.PoolRecords,
	})
	d.test = ecg.Generate(ecg.Config{
		Seed:       simrand.DeriveSeed(cfg.Seed, "ecg-test"),
		NumRecords: cfg.TestRecords,
	})
	d.bootstrap = ecg.Generate(ecg.Config{
		Seed:       simrand.DeriveSeed(cfg.Seed, "ecg-bootstrap"),
		NumRecords: cfg.BootstrapRecords,
	})
	d.gen = consistency.MustNew(ConsistencyConfig())
	d.Reset(cfg.Seed)
	return d
}

// ConsistencyConfig is the paper's ECG consistency assertion: identifier
// = predicted class, T = 30 seconds, flicker only (an A→B→A transition
// makes A flicker).
func ConsistencyConfig() consistency.Config[string] {
	return consistency.Config[string]{
		Name:     "ecg",
		Id:       func(class string) string { return class },
		T:        30,
		Temporal: []consistency.TemporalKind{consistency.Flicker},
	}
}

// Name implements activelearn.Domain.
func (d *Domain) Name() string { return "ecg" }

// NumAssertions implements activelearn.Domain.
func (d *Domain) NumAssertions() int { return NumAssertions }

// PoolSize implements activelearn.Domain.
func (d *Domain) PoolSize() int { return len(d.pool) }

// Reset implements activelearn.Domain: a fresh classifier trained on the
// bootstrap split.
func (d *Domain) Reset(seed int64) {
	d.model = ecg.NewClassifier(simrand.DeriveSeed(seed, "ecg-model"), ecg.DefaultClassifierParams())
	d.model.Train(d.bootstrap, 1)
}

// Model exposes the classifier (for weak supervision).
func (d *Domain) Model() *ecg.Classifier { return d.model }

// Train implements activelearn.Domain.
func (d *Domain) Train(indices []int) {
	recs := make([]ecg.Record, 0, len(indices))
	for _, i := range indices {
		if i >= 0 && i < len(d.pool) {
			recs = append(recs, d.pool[i])
		}
	}
	d.model.Train(recs, 1)
}

// Evaluate implements activelearn.Domain: record-level accuracy.
func (d *Domain) Evaluate() float64 {
	return d.model.Accuracy(d.test)
}

// PredictionStream converts a record's segment predictions into the
// consistency stream the assertion runs over.
func PredictionStream(rec ecg.Record, preds []ecg.Prediction) []consistency.TimedOutputs[string] {
	out := make([]consistency.TimedOutputs[string], len(preds))
	for i, p := range preds {
		out[i] = consistency.TimedOutputs[string]{
			Index:   rec.Segments[i].Index,
			Time:    rec.Segments[i].Time,
			Outputs: []string{p.Class},
		}
	}
	return out
}

// AssessRecord evaluates the assertion and uncertainty on one record.
func (d *Domain) AssessRecord(rec ecg.Record) (severity float64, uncertainty float64, preds []ecg.Prediction) {
	preds = d.model.Classify(rec)
	stream := PredictionStream(rec, preds)
	severity = float64(len(d.gen.FlickerEvents(stream)))
	_, conf := ecg.RecordPrediction(preds)
	return severity, 1 - conf, preds
}

// Assess implements activelearn.Domain.
func (d *Domain) Assess() []bandit.Candidate {
	out := make([]bandit.Candidate, len(d.pool))
	for i, rec := range d.pool {
		sev, unc, _ := d.AssessRecord(rec)
		out[i] = bandit.Candidate{
			Index:       i,
			Severities:  assertion.Vector{sev},
			Uncertainty: unc,
		}
	}
	return out
}

// WeakSupervisionResult reports the Table 4 ECG weak-supervision run.
type WeakSupervisionResult struct {
	PretrainedAcc     float64
	WeakAcc           float64
	CorrectedSegments int
	RecordsConsumed   int
	RelativeGainPct   float64
}

// RunWeakSupervision reproduces the paper's §5.5 ECG experiment: over up
// to maxRecords unlabeled records, apply the consistency assertion's
// majority-correction rule to oscillating predictions and fine-tune on
// the corrected weak labels.
func (d *Domain) RunWeakSupervision(maxRecords int) WeakSupervisionResult {
	res := WeakSupervisionResult{PretrainedAcc: d.Evaluate()}
	corrected := 0
	for i, rec := range d.pool {
		if i >= maxRecords {
			break
		}
		res.RecordsConsumed++
		preds := d.model.Classify(rec)
		stream := PredictionStream(rec, preds)
		// Each flicker gap segment's class is corrected to the
		// surrounding (majority) class.
		for _, ev := range d.gen.FlickerEvents(stream) {
			corrected += len(ev.Gap)
		}
	}
	res.CorrectedSegments = corrected
	d.model.TrainWeakOscillation(corrected)
	res.WeakAcc = d.Evaluate()
	if res.PretrainedAcc > 0 {
		res.RelativeGainPct = 100 * (res.WeakAcc - res.PretrainedAcc) / res.PretrainedAcc
	}
	return res
}

// PrecisionSample is one assertion firing with its ground-truth verdict.
type PrecisionSample struct {
	Record     int
	ModelError bool
}

// CollectPrecisionSamples classifies each assertion firing against
// ground truth: the firing is a true error when any gap segment's
// prediction differs from its true class.
func (d *Domain) CollectPrecisionSamples() []PrecisionSample {
	var out []PrecisionSample
	for _, rec := range d.pool {
		preds := d.model.Classify(rec)
		stream := PredictionStream(rec, preds)
		evs := d.gen.FlickerEvents(stream)
		if len(evs) == 0 {
			continue
		}
		isErr := false
		for _, ev := range evs {
			for _, gi := range ev.Gap {
				if gi >= 0 && gi < len(preds) && preds[gi].Class != rec.Segments[gi].True {
					isErr = true
				}
			}
		}
		out = append(out, PrecisionSample{Record: rec.Index, ModelError: isErr})
	}
	return out
}
