package consistency

import (
	"testing"

	"omg/internal/assertion"
)

// face is the test output type: a detected face with identity and
// attributes, matching the paper's TV-news example.
type face struct {
	id     string
	gender string
	hair   string
}

func faceConfig(t float64) Config[face] {
	return Config[face]{
		Name: "news",
		Id:   func(f face) string { return f.id },
		Attrs: func(f face) map[string]string {
			return map[string]string{"gender": f.gender, "hair": f.hair}
		},
		AttrKeys: []string{"gender", "hair"},
		T:        t,
	}
}

func sample(idx int, time float64, faces ...face) TimedOutputs[face] {
	return TimedOutputs[face]{Index: idx, Time: time, Outputs: faces}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config[face]{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config[face]{Name: "x"}); err == nil {
		t.Fatal("missing Id accepted")
	}
	if _, err := New(Config[face]{Name: "x", Id: func(face) string { return "" }, AttrKeys: []string{"a"}}); err == nil {
		t.Fatal("AttrKeys without Attrs accepted")
	}
	if _, err := New(Config[face]{Name: "x", Id: func(face) string { return "" }, T: -1}); err == nil {
		t.Fatal("negative T accepted")
	}
	if _, err := New(faceConfig(1)); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config[face]{})
}

func TestGeneratedAssertionNames(t *testing.T) {
	g := MustNew(faceConfig(1))
	names := make(map[string]bool)
	for _, a := range g.Assertions() {
		names[a.Name()] = true
	}
	for _, want := range []string{"news:attr:gender", "news:attr:hair", "news:flicker", "news:appear"} {
		if !names[want] {
			t.Fatalf("missing generated assertion %q (have %v)", want, names)
		}
	}
}

func TestNoTemporalWhenTZero(t *testing.T) {
	g := MustNew(faceConfig(0))
	if n := len(g.Assertions()); n != 2 {
		t.Fatalf("T=0 should generate only attr assertions, got %d", n)
	}
}

func TestTemporalSelection(t *testing.T) {
	cfg := faceConfig(30)
	cfg.Temporal = []TemporalKind{Flicker}
	g := MustNew(cfg)
	names := map[string]bool{}
	for _, a := range g.Assertions() {
		names[a.Name()] = true
	}
	if !names["news:flicker"] || names["news:appear"] {
		t.Fatalf("temporal selection ignored: %v", names)
	}
}

func findAssertion(t *testing.T, g *Generator[face], name string) assertion.Assertion {
	t.Helper()
	for _, a := range g.Assertions() {
		if a.Name() == name {
			return a
		}
	}
	t.Fatalf("assertion %q not generated", name)
	return nil
}

func TestAttrAssertionConsistent(t *testing.T) {
	g := MustNew(faceConfig(1))
	a := findAssertion(t, g, "news:attr:gender")
	window := Samples([]TimedOutputs[face]{
		sample(0, 0, face{id: "host", gender: "F", hair: "blond"}),
		sample(1, 0.1, face{id: "host", gender: "F", hair: "blond"}),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("consistent attrs fired: %v", sev)
	}
}

func TestAttrAssertionInconsistent(t *testing.T) {
	g := MustNew(faceConfig(1))
	a := findAssertion(t, g, "news:attr:gender")
	window := Samples([]TimedOutputs[face]{
		sample(0, 0, face{id: "host", gender: "F"}),
		sample(1, 0.1, face{id: "host", gender: "F"}),
		sample(2, 0.2, face{id: "host", gender: "M"}), // inconsistent
	})
	if sev := a.Check(window); sev != 1 {
		t.Fatalf("severity = %v, want 1", sev)
	}
}

func TestAttrAssertionSeparatesIdentifiers(t *testing.T) {
	g := MustNew(faceConfig(1))
	a := findAssertion(t, g, "news:attr:gender")
	// Two different people with different genders: consistent.
	window := Samples([]TimedOutputs[face]{
		sample(0, 0, face{id: "a", gender: "F"}, face{id: "b", gender: "M"}),
		sample(1, 0.1, face{id: "a", gender: "F"}, face{id: "b", gender: "M"}),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("cross-identifier severity = %v", sev)
	}
}

func TestAttrAssertionCountsAllMinorityOutputs(t *testing.T) {
	g := MustNew(faceConfig(1))
	a := findAssertion(t, g, "news:attr:hair")
	window := Samples([]TimedOutputs[face]{
		sample(0, 0, face{id: "h", hair: "blond"}),
		sample(1, 0.1, face{id: "h", hair: "blond"}),
		sample(2, 0.2, face{id: "h", hair: "brown"}),
		sample(3, 0.3, face{id: "h", hair: "brown"}),
		sample(4, 0.4, face{id: "h", hair: "blond"}),
	})
	if sev := a.Check(window); sev != 2 {
		t.Fatalf("severity = %v, want 2 (two minority outputs)", sev)
	}
}

func TestAttrAssertionNonConformingOutputIgnored(t *testing.T) {
	g := MustNew(faceConfig(1))
	a := findAssertion(t, g, "news:attr:gender")
	window := []assertion.Sample{{Index: 0, Output: "not-a-face-slice"}}
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("non-conforming output severity = %v", sev)
	}
}

func TestFlickerDetection(t *testing.T) {
	g := MustNew(faceConfig(1.0))
	a := findAssertion(t, g, "news:flicker")
	// Present, absent, present within 0.2s < T=1.
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0, face{id: "h"}),
		sample(1, 0.1),
		sample(2, 0.2, face{id: "h"}),
	})
	if sev := a.Check(window); sev != 1 {
		t.Fatalf("flicker severity = %v, want 1", sev)
	}
}

func TestFlickerLongGapNotFlagged(t *testing.T) {
	g := MustNew(faceConfig(1.0))
	a := findAssertion(t, g, "news:flicker")
	// Gap of 5 seconds >= T=1: a legitimate disappearance.
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0, face{id: "h"}),
		sample(1, 2.5),
		sample(2, 5.0, face{id: "h"}),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("long-gap severity = %v, want 0", sev)
	}
}

func TestFlickerContinuousPresenceNotFlagged(t *testing.T) {
	g := MustNew(faceConfig(1.0))
	a := findAssertion(t, g, "news:flicker")
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0, face{id: "h"}),
		sample(1, 0.1, face{id: "h"}),
		sample(2, 0.2, face{id: "h"}),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("continuous severity = %v", sev)
	}
}

func TestFlickerMultipleEvents(t *testing.T) {
	g := MustNew(faceConfig(1.0))
	a := findAssertion(t, g, "news:flicker")
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0, face{id: "h"}),
		sample(1, 0.1),
		sample(2, 0.2, face{id: "h"}),
		sample(3, 0.3),
		sample(4, 0.4, face{id: "h"}),
	})
	if sev := a.Check(window); sev != 2 {
		t.Fatalf("severity = %v, want 2", sev)
	}
}

func TestAppearDetection(t *testing.T) {
	g := MustNew(faceConfig(1.0))
	a := findAssertion(t, g, "news:appear")
	// Ghost present for 0.1s in the middle of the window.
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0),
		sample(1, 0.1, face{id: "ghost"}),
		sample(2, 0.2, face{id: "ghost"}),
		sample(3, 0.3),
	})
	if sev := a.Check(window); sev != 1 {
		t.Fatalf("appear severity = %v, want 1", sev)
	}
}

func TestAppearEdgeTouchingAbstains(t *testing.T) {
	g := MustNew(faceConfig(1.0))
	a := findAssertion(t, g, "news:appear")
	// Present at the first window sample: absence before not observed.
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0, face{id: "x"}),
		sample(1, 0.1),
		sample(2, 0.2),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("edge-touching severity = %v", sev)
	}
	// Present at the last window sample.
	window = Samples([]TimedOutputs[face]{
		sample(0, 0.0),
		sample(1, 0.1),
		sample(2, 0.2, face{id: "x"}),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("trailing-edge severity = %v", sev)
	}
}

func TestAppearLongPresenceNotFlagged(t *testing.T) {
	g := MustNew(faceConfig(0.15))
	a := findAssertion(t, g, "news:appear")
	window := Samples([]TimedOutputs[face]{
		sample(0, 0.0),
		sample(1, 0.1, face{id: "x"}),
		sample(2, 0.2, face{id: "x"}),
		sample(3, 0.3, face{id: "x"}),
		sample(4, 0.4),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("long presence severity = %v", sev)
	}
}

func TestECGStyleFlicker(t *testing.T) {
	// The paper's ECG assertion: classification should not change
	// A -> B -> A within 30 seconds. Identifier = predicted class.
	g := MustNew(Config[string]{
		Name: "ecg",
		Id:   func(c string) string { return c },
		T:    30,
		Temporal: []TemporalKind{
			Flicker,
		},
	})
	a := g.Assertions()[0]
	mk := func(idx int, t float64, class string) TimedOutputs[string] {
		return TimedOutputs[string]{Index: idx, Time: t, Outputs: []string{class}}
	}
	// AF -> Normal -> AF within 20s: fires.
	window := Samples([]TimedOutputs[string]{
		mk(0, 0, "AF"), mk(1, 10, "N"), mk(2, 20, "AF"),
	})
	if sev := a.Check(window); sev != 1 {
		t.Fatalf("ECG oscillation severity = %v, want 1", sev)
	}
	// AF -> Normal -> AF over 60s: allowed.
	window = Samples([]TimedOutputs[string]{
		mk(0, 0, "AF"), mk(1, 30, "N"), mk(2, 60, "AF"),
	})
	if sev := a.Check(window); sev != 0 {
		t.Fatalf("slow transition severity = %v", sev)
	}
}

func TestRegisterAddsAllWithMeta(t *testing.T) {
	g := MustNew(faceConfig(1))
	reg := assertion.NewRegistry()
	if err := g.Register(reg, assertion.Meta{Domain: "tv-news"}); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.Names()); n != 4 {
		t.Fatalf("registered %d, want 4", n)
	}
	e, _ := reg.Get("news:flicker")
	if e.Meta.Kind != "consistency" || e.Meta.Domain != "tv-news" {
		t.Fatalf("meta = %+v", e.Meta)
	}
	// Registering again must fail on the duplicate names.
	if err := g.Register(reg, assertion.Meta{}); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestShortWindowAbstains(t *testing.T) {
	g := MustNew(faceConfig(1))
	fl := findAssertion(t, g, "news:flicker")
	ap := findAssertion(t, g, "news:appear")
	window := Samples([]TimedOutputs[face]{sample(0, 0, face{id: "h"}), sample(1, 1)})
	if fl.Check(window) != 0 || ap.Check(window) != 0 {
		t.Fatal("temporal assertions fired on a 2-sample window")
	}
}
