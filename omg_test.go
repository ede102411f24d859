package omg_test

import (
	"net/http/httptest"
	"strconv"
	"testing"

	"omg"
)

// These tests exercise the public facade end-to-end the way a downstream
// user would: register assertions (custom and consistency), monitor a
// stream, and select data with BAL.

func TestFacadeMonitorFlow(t *testing.T) {
	reg := omg.NewRegistry()
	reg.MustAdd(omg.NewBoolAssertion("too-many-outputs", func(w []omg.Sample) bool {
		outs, _ := w[len(w)-1].Output.([]int)
		return len(outs) > 3
	}))

	mon := omg.NewMonitor(reg.Suite(), omg.WithWindowSize(4))
	var actions int
	mon.OnViolation(1, func(v omg.Violation) { actions++ })

	mon.Observe(omg.Sample{Index: 0, Output: []int{1, 2}})
	vec := mon.Observe(omg.Sample{Index: 1, Output: []int{1, 2, 3, 4, 5}})
	if !vec.Fired() {
		t.Fatal("assertion did not fire")
	}
	if actions != 1 {
		t.Fatalf("actions = %d", actions)
	}
	if mon.Recorder().TotalFired() != 1 {
		t.Fatal("violation not recorded")
	}
}

type reading struct {
	ID    string
	Label string
}

func TestFacadeConsistencyFlow(t *testing.T) {
	reg := omg.NewRegistry()
	gen, err := omg.AddConsistencyAssertion(reg, omg.ConsistencyConfig[reading]{
		Name:     "readings",
		Id:       func(r reading) string { return r.ID },
		Attrs:    func(r reading) map[string]string { return map[string]string{"label": r.Label} },
		AttrKeys: []string{"label"},
		T:        1,
	}, omg.Meta{Domain: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 3 { // attr + flicker + appear
		t.Fatalf("registered %d assertions", reg.Len())
	}

	stream := []omg.TimedOutputs[reading]{
		{Index: 0, Time: 0, Outputs: []reading{{ID: "a", Label: "x"}}},
		{Index: 1, Time: 0.1, Outputs: []reading{{ID: "a", Label: "x"}}},
		{Index: 2, Time: 0.2, Outputs: []reading{{ID: "a", Label: "y"}}},
	}
	props := gen.WeakLabels(stream)
	if len(props) != 1 || props[0].Kind != omg.ModifyAttr || props[0].Value != "x" {
		t.Fatalf("proposals = %+v", props)
	}

	// The generated assertions run on monitor samples.
	suite := reg.Suite()
	vec := suite.Evaluate(omg.ConsistencySamples(stream))
	if !vec.Fired() {
		t.Fatal("consistency assertion did not fire on inconsistent stream")
	}
}

func TestFacadeAddConsistencyValidation(t *testing.T) {
	reg := omg.NewRegistry()
	if _, err := omg.AddConsistencyAssertion(reg, omg.ConsistencyConfig[reading]{}, omg.Meta{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestFacadeBALSelection(t *testing.T) {
	sel := omg.NewBAL(1, omg.BALConfig{})
	cands := make([]omg.Candidate, 50)
	for i := range cands {
		sev := omg.Vector{0}
		if i%2 == 0 {
			sev[0] = float64(i + 1)
		}
		cands[i] = omg.Candidate{Index: i, Severities: sev}
	}
	state := omg.RoundState{
		Round: 1, Budget: 10, Candidates: cands,
		FiredCounts: []float64{25}, // the even half fired
	}
	picked := sel.Select(state)
	if len(picked) != 10 {
		t.Fatalf("picked %d", len(picked))
	}
	for _, p := range picked {
		if !cands[p].Severities.Fired() {
			t.Fatal("round-1 BAL picked a non-flagged candidate")
		}
	}
}

func TestFacadeViolationStore(t *testing.T) {
	// A Recorder's MemStore, queried through the seam's StoreQuery.
	rec := omg.NewRecorder(0)
	rec.Record(omg.Violation{Assertion: "lights", Stream: "cam-0", Severity: 2})
	rec.Record(omg.Violation{Assertion: "flicker", Stream: "cam-1", Severity: 1})
	got := rec.Query(omg.StoreQuery{Assertion: "lights"})
	if len(got) != 1 || got[0].Stream != "cam-0" {
		t.Fatalf("store query = %+v", got)
	}

	// A disk-backed collector, fed by an HTTPSink, survives reopen.
	dir := t.TempDir()
	export := func() {
		t.Helper()
		c, err := omg.OpenCollector(omg.CollectorConfig{Store: omg.StoreDisk, DataDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(c.Handler())
		sink, err := omg.NewHTTPSink(omg.HTTPSinkConfig{BaseURL: srv.URL, Source: "edge"})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Record(omg.Violation{Assertion: "lights", Stream: "cam-0", SampleIndex: 1, Severity: 2}); err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	export()
	// The same (source, seq) again after reopen: the dedup mark survived,
	// so the collector still holds exactly one violation.
	export()
	c, err := omg.OpenCollector(omg.CollectorConfig{Store: omg.StoreDisk, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.TotalFired() != 1 {
		t.Fatalf("recovered %d violations, want 1", c.TotalFired())
	}
}

func TestFacadeRegistryNames(t *testing.T) {
	reg := omg.NewRegistry()
	for i := 0; i < 5; i++ {
		reg.MustAdd(omg.NewAssertion("a"+strconv.Itoa(i), func([]omg.Sample) float64 { return 0 }))
	}
	if reg.Len() != 5 || len(reg.Names()) != 5 {
		t.Fatal("registry bookkeeping wrong")
	}
}
