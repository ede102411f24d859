package heartbeat

import (
	"testing"

	"omg/internal/assertion"
	"omg/internal/ecg"
)

func smallDomain(t *testing.T) *Domain {
	t.Helper()
	return New(Config{Seed: 1, PoolRecords: 300, TestRecords: 200, BootstrapRecords: 200})
}

func TestDomainBasics(t *testing.T) {
	d := smallDomain(t)
	if d.Name() != "ecg" || d.NumAssertions() != 1 || d.PoolSize() != 300 {
		t.Fatalf("identity: %s %d %d", d.Name(), d.NumAssertions(), d.PoolSize())
	}
	acc := d.Evaluate()
	if acc < 0.3 || acc > 0.95 {
		t.Fatalf("bootstrap accuracy = %v", acc)
	}
}

func TestDomainAssess(t *testing.T) {
	d := smallDomain(t)
	cands := d.Assess()
	if len(cands) != 300 {
		t.Fatalf("candidates = %d", len(cands))
	}
	fired := 0
	for i, c := range cands {
		if c.Index != i || len(c.Severities) != 1 {
			t.Fatalf("candidate %d malformed", i)
		}
		if c.Severities[0] > 0 {
			fired++
		}
		if c.Uncertainty < 0 || c.Uncertainty > 1 {
			t.Fatalf("uncertainty = %v", c.Uncertainty)
		}
	}
	if fired == 0 || fired == 300 {
		t.Fatalf("assertion fired on %d/300 records: no selectivity", fired)
	}
}

func TestDomainTrainImprovesAndResets(t *testing.T) {
	d := smallDomain(t)
	before := d.Evaluate()
	idx := make([]int, 200)
	for i := range idx {
		idx[i] = i
	}
	d.Train(idx)
	if d.Evaluate() <= before {
		t.Fatal("training did not improve accuracy")
	}
	d.Reset(1)
	if d.Evaluate() != before {
		t.Fatal("Reset did not restore bootstrap")
	}
}

func TestRunWeakSupervision(t *testing.T) {
	d := smallDomain(t)
	res := d.RunWeakSupervision(300)
	if res.CorrectedSegments == 0 {
		t.Fatal("no corrections generated")
	}
	if res.WeakAcc < res.PretrainedAcc {
		t.Fatalf("weak supervision hurt: %v -> %v", res.PretrainedAcc, res.WeakAcc)
	}
}

func TestCollectPrecisionSamples(t *testing.T) {
	d := smallDomain(t)
	samples := d.CollectPrecisionSamples()
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	errs := 0
	for _, s := range samples {
		if s.ModelError {
			errs++
		}
	}
	if prec := float64(errs) / float64(len(samples)); prec < 0.7 {
		t.Fatalf("ECG assertion precision = %v", prec)
	}
}

func TestPredictionStream(t *testing.T) {
	rec := ecg.Generate(ecg.Config{Seed: 2, NumRecords: 1})[0]
	preds := make([]ecg.Prediction, len(rec.Segments))
	for i := range preds {
		preds[i] = ecg.Prediction{Class: "N"}
	}
	stream := PredictionStream(rec, preds)
	if len(stream) != len(rec.Segments) {
		t.Fatalf("stream length = %d", len(stream))
	}
	for i, s := range stream {
		if s.Index != i || len(s.Outputs) != 1 || s.Outputs[0] != "N" {
			t.Fatalf("stream[%d] = %+v", i, s)
		}
	}
}

func TestSuiteSingleAssertion(t *testing.T) {
	d := smallDomain(t)
	suite := assertion.NewSuite(d.gen.Assertions()...)
	if suite.Len() != 1 || suite.Names()[0] != AssertionName {
		t.Fatalf("suite = %v", suite.Names())
	}
}
