package assertion

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestRecorderSnapshotRoundTrip(t *testing.T) {
	src := NewMemStore(0)
	src.Append(Violation{Assertion: "a", Stream: "cam-0", SampleIndex: 3, Time: 0.1, Severity: 2})
	src.Append(Violation{Assertion: "a", Stream: "cam-1", SampleIndex: 7, Time: 0.2, Severity: 5})
	src.Append(Violation{Assertion: "b", Stream: "cam-0", SampleIndex: 9, Time: 0.3, Severity: 1})

	snap := src.Export()
	if got := snap.Stats["a"].Fired + snap.Stats["b"].Fired; got != 3 {
		t.Fatalf("snapshot stats fired %d, want 3", got)
	}

	// Through JSON, as the export wire format ships it.
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded RecorderSnapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}

	dst := NewMemStore(0)
	dst.Append(Violation{Assertion: "stale", Severity: 9}) // must be wiped by the restore
	dst.Replace(decoded)

	if got, want := dst.StatsAll(), src.StatsAll(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored StatsAll = %v, want %v", got, want)
	}
	if got, want := dst.Query(StoreQuery{}), src.Query(StoreQuery{}); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored Violations = %v, want %v", got, want)
	}
	for _, name := range src.AssertionNames() {
		want, _ := src.Stats(name)
		got, ok := dst.Stats(name)
		if !ok || got != want {
			t.Fatalf("restored Stats(%s) = %+v ok=%v, want %+v", name, got, ok, want)
		}
	}
	if _, ok := dst.Stats("stale"); ok {
		t.Fatal("restore must replace pre-existing statistics")
	}
	if got := dst.TotalFired(); got != 3 {
		t.Fatalf("restored TotalFired = %d, want 3", got)
	}
}

func TestRecorderSnapshotCarriesLogDropped(t *testing.T) {
	src := NewMemStore(2) // bounded: the first violation is evicted
	for i := 0; i < 3; i++ {
		src.Append(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
	}
	snap := src.Export()
	if snap.LogDropped != 1 || len(snap.Violations) != 2 {
		t.Fatalf("snapshot = %d violations with LogDropped %d, want 2 and 1", len(snap.Violations), snap.LogDropped)
	}
	// Stats stay complete even though the log is partial.
	if got := snap.Stats["a"].Fired; got != 3 {
		t.Fatalf("snapshot stats fired %d, want 3", got)
	}

	dst := NewMemStore(0)
	dst.Replace(snap)
	if got := dst.Dropped(); got != 1 {
		t.Fatalf("restored Dropped = %d, want 1", got)
	}
	if got := len(dst.Query(StoreQuery{})); got != 2 {
		t.Fatalf("restored log holds %d violations, want 2", got)
	}
}

func TestRecorderRestoreIntoTighterBoundEvicts(t *testing.T) {
	src := NewMemStore(0)
	for i := 0; i < 5; i++ {
		src.Append(Violation{Assertion: "a", SampleIndex: i, Severity: 1})
	}
	dst := NewMemStore(2)
	dst.Replace(src.Export())
	vs := dst.Query(StoreQuery{})
	if len(vs) != 2 || vs[0].SampleIndex != 3 || vs[1].SampleIndex != 4 {
		t.Fatalf("tighter bound should keep the newest violations, got %v", vs)
	}
	if got := dst.Dropped(); got != 3 {
		t.Fatalf("restore evictions must be counted: Dropped = %d, want 3", got)
	}
	// The complete statistics survive the partial log.
	if got := dst.TotalFired(); got != 5 {
		t.Fatalf("restored TotalFired = %d, want 5", got)
	}
}
