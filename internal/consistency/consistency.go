// Package consistency implements the paper's consistency-assertion API
// (§4): a high-level interface from which OMG generates multiple Boolean
// model assertions plus correction rules that propose weak labels for
// failing outputs.
//
// The user describes their model's output with two functions:
//
//   - Id(y) returns an identifier for output y (an opaque value expected
//     to be consistent across invocations — a person's name, a track id, a
//     predicted class).
//   - Attrs(y) returns named attributes expected to be consistent for
//     each identifier (gender, hair colour, vehicle class, ...).
//
// plus a temporal-consistency threshold T: each identifier should not
// appear or disappear for intervals shorter than T seconds (paper §4.1).
// From this description the generator emits:
//
//   - one Boolean assertion per attribute key, checking that outputs
//     sharing an identifier agree on the attribute;
//   - a "flicker" assertion (an identifier disappears and reappears
//     within T) and an "appear" assertion (an identifier exists for less
//     than T, bounded by absence) — together: more than one presence
//     transition inside a T-second window;
//   - correction rules that propose weak labels: the majority attribute
//     value for inconsistent attributes, removal of transient
//     appearances, and — via a user-supplied WeakLabel function — imputed
//     outputs for flicker gaps (paper §4.2).
package consistency

import (
	"fmt"
	"sort"

	"omg/internal/assertion"
)

// TimedOutputs is a model's outputs for one input: the paper's
// {y_{i,j}} for input x_i. Outputs may be empty (nothing detected).
type TimedOutputs[Y any] struct {
	// Index is the sample's position in its stream.
	Index int
	// Time is the sample timestamp in seconds.
	Time float64
	// Outputs holds zero or more model outputs for this input.
	Outputs []Y
}

// TemporalKind selects which generated temporal assertions to include.
type TemporalKind string

const (
	// Flicker fires when an identifier disappears and reappears within T
	// seconds (Figure 1 of the paper).
	Flicker TemporalKind = "flicker"
	// Appear fires when an identifier is present for less than T seconds,
	// bounded by absence on both sides.
	Appear TemporalKind = "appear"
)

// Config describes one consistency assertion in the paper's
// AddConsistencyAssertion(Id, Attrs, T) form.
type Config[Y any] struct {
	// Name prefixes the generated assertion names (required).
	Name string
	// Id returns the identifier of an output (required).
	Id func(Y) string
	// Attrs returns the named attributes of an output. May be nil when
	// only temporal consistency is wanted.
	Attrs func(Y) map[string]string
	// AttrKeys lists the attribute keys to generate assertions for. Keys
	// missing from an output's Attrs map are skipped for that output.
	AttrKeys []string
	// T is the temporal-consistency threshold in seconds. Zero disables
	// temporal assertions; New rejects a negative or NaN T.
	T float64
	// Temporal selects which temporal assertions to generate; defaults to
	// both Flicker and Appear when T > 0. New rejects any other kind.
	Temporal []TemporalKind
	// WeakLabel, when set, is consulted to synthesise a missing output
	// for identifier id at sample gapIndex during a flicker gap, given
	// the identifier's surrounding outputs. Returning ok=false abstains.
	// This mirrors the paper's requirement that adding predictions needs
	// domain logic (e.g. averaging nearby boxes).
	WeakLabel func(id string, gapIndex int, before, after TimedOutputs[Y]) (Y, bool)
}

// Generator holds the generated assertions and correction rules for one
// consistency-assertion configuration.
type Generator[Y any] struct {
	cfg      Config[Y]
	temporal []TemporalKind
}

// New validates the configuration and builds a generator.
func New[Y any](cfg Config[Y]) (*Generator[Y], error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("consistency: Name is required")
	}
	if cfg.Id == nil {
		return nil, fmt.Errorf("consistency: Id function is required")
	}
	if len(cfg.AttrKeys) > 0 && cfg.Attrs == nil {
		return nil, fmt.Errorf("consistency: AttrKeys given without Attrs function")
	}
	if !(cfg.T >= 0) {
		return nil, fmt.Errorf("consistency: T must be a number >= 0, got %v", cfg.T)
	}
	for _, k := range cfg.Temporal {
		if k != Flicker && k != Appear {
			return nil, fmt.Errorf("consistency: unknown temporal kind %q (want %q or %q)", k, Flicker, Appear)
		}
	}
	g := &Generator[Y]{cfg: cfg}
	if cfg.T > 0 {
		g.temporal = cfg.Temporal
		if len(g.temporal) == 0 {
			g.temporal = []TemporalKind{Flicker, Appear}
		}
	}
	return g, nil
}

// MustNew is New that panics on error.
func MustNew[Y any](cfg Config[Y]) *Generator[Y] {
	g, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Assertions returns the generated Boolean assertions: one per attribute
// key, then the selected temporal assertions. Names are
// "<name>:attr:<key>", "<name>:flicker", "<name>:appear". Each is
// assertion.Stateful, so a Monitor decodes every sample's outputs once
// rather than once per window position.
func (g *Generator[Y]) Assertions() []assertion.Assertion {
	var out []assertion.Assertion
	for _, key := range g.cfg.AttrKeys {
		out = append(out, g.newCheck(fmt.Sprintf("%s:attr:%s", g.cfg.Name, key), attrKind, key))
	}
	for _, kind := range g.temporal {
		out = append(out, g.newCheck(fmt.Sprintf("%s:%s", g.cfg.Name, kind), kind, ""))
	}
	return out
}

// Register adds all generated assertions to the registry with the given
// metadata (Kind is forced to "consistency").
func (g *Generator[Y]) Register(reg *assertion.Registry, meta assertion.Meta) error {
	meta.Kind = "consistency"
	for _, a := range g.Assertions() {
		if err := reg.AddWithMeta(a, meta); err != nil {
			return err
		}
	}
	return nil
}

// Samples converts typed timed outputs into assertion samples, for
// feeding generated assertions or a Monitor.
func Samples[Y any](stream []TimedOutputs[Y]) []assertion.Sample {
	out := make([]assertion.Sample, len(stream))
	for i, s := range stream {
		out[i] = assertion.Sample{Index: s.Index, Time: s.Time, Output: s.Outputs}
	}
	return out
}

// attrVal is one observed attribute value; ok is false when the output
// did not carry the attribute at all.
type attrVal struct {
	v  string
	ok bool
}

// majority returns the most common present value and how many values were
// present, breaking ties lexicographically for determinism.
func majority(vs []attrVal) (string, int) {
	counts := make(map[string]int)
	total := 0
	for _, v := range vs {
		if v.ok {
			counts[v.v]++
			total++
		}
	}
	if total == 0 {
		return "", 0
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestN := "", -1
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best, total
}
