package track

import (
	"testing"

	"omg/internal/geometry"
)

func b(x, y, w, h float64) geometry.Box2D { return geometry.NewBox2D(x, y, x+w, y+h) }

func TestTrackerContinuesTrack(t *testing.T) {
	tr := NewTracker()
	a := tr.Update(0, []Observation{{Box: b(0, 0, 10, 10), Class: "car"}})
	c := tr.Update(1, []Observation{{Box: b(1, 0, 10, 10), Class: "car"}})
	if a[0].TrackID != c[0].TrackID {
		t.Fatalf("moving object changed track: %d vs %d", a[0].TrackID, c[0].TrackID)
	}
}

func TestTrackerNewTrackForDistantBox(t *testing.T) {
	tr := NewTracker()
	a := tr.Update(0, []Observation{{Box: b(0, 0, 10, 10)}})
	c := tr.Update(1, []Observation{{Box: b(500, 500, 10, 10)}})
	if a[0].TrackID == c[0].TrackID {
		t.Fatal("distant box joined existing track")
	}
}

func TestTrackerSurvivesGap(t *testing.T) {
	tr := NewTracker() // MaxGap = 2
	a := tr.Update(0, []Observation{{Box: b(0, 0, 10, 10)}})
	// Frames 1 and 2: object missing (flicker).
	tr.Update(1, nil)
	tr.Update(2, nil)
	c := tr.Update(3, []Observation{{Box: b(0, 0, 10, 10)}})
	if a[0].TrackID != c[0].TrackID {
		t.Fatal("track did not survive a gap within MaxGap")
	}
}

func TestTrackerRetiresAfterMaxGap(t *testing.T) {
	tr := NewTracker()
	a := tr.Update(0, []Observation{{Box: b(0, 0, 10, 10)}})
	for f := 1; f <= 4; f++ {
		tr.Update(f, nil)
	}
	c := tr.Update(5, []Observation{{Box: b(0, 0, 10, 10)}})
	if a[0].TrackID == c[0].TrackID {
		t.Fatal("track survived beyond MaxGap")
	}
}

func TestTrackerGreedyPrefersHigherIoU(t *testing.T) {
	tr := NewTracker()
	tr.Update(0, []Observation{
		{Box: b(0, 0, 10, 10), Ref: 0},
		{Box: b(8, 0, 10, 10), Ref: 1},
	})
	// One new box overlapping both previous boxes, closer to the second.
	out := tr.Update(1, []Observation{{Box: b(7, 0, 10, 10), Ref: 2}})
	tracks := tr.Tracks()
	if len(tracks) != 2 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	// The new observation should continue the track whose last box is at
	// x=8 (higher IoU), which is track ID 2.
	if out[0].TrackID != 2 {
		t.Fatalf("assigned track %d, want 2", out[0].TrackID)
	}
}

func TestTrackerClassFlipDoesNotBreakTrack(t *testing.T) {
	tr := NewTracker()
	a := tr.Update(0, []Observation{{Box: b(0, 0, 10, 10), Class: "car"}})
	c := tr.Update(1, []Observation{{Box: b(0, 0, 10, 10), Class: "truck"}})
	if a[0].TrackID != c[0].TrackID {
		t.Fatal("class flip broke the track")
	}
}

func TestMajorityClass(t *testing.T) {
	tr := NewTracker()
	tr.Update(0, []Observation{{Box: b(0, 0, 10, 10), Class: "car"}})
	tr.Update(1, []Observation{{Box: b(0, 0, 10, 10), Class: "truck"}})
	tr.Update(2, []Observation{{Box: b(0, 0, 10, 10), Class: "car"}})
	tracks := tr.Tracks()
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	if got := tracks[0].MajorityClass(); got != "car" {
		t.Fatalf("MajorityClass = %q", got)
	}
}

func TestMajorityClassTieBreaksLexicographically(t *testing.T) {
	tk := &Track{Obs: []TrackedObservation{
		{Observation: Observation{Class: "truck"}},
		{Observation: Observation{Class: "car"}},
	}}
	if got := tk.MajorityClass(); got != "car" {
		t.Fatalf("tie break = %q", got)
	}
}

func TestMajorityClassEmpty(t *testing.T) {
	if got := (&Track{}).MajorityClass(); got != "" {
		t.Fatalf("empty majority = %q", got)
	}
}

func TestTrackerMultipleObjects(t *testing.T) {
	tr := NewTracker()
	// Two objects crossing paths but never overlapping enough to swap.
	var id0, id1 int
	for f := 0; f < 10; f++ {
		obs := []Observation{
			{Box: b(float64(f*5), 0, 10, 10), Class: "car"},
			{Box: b(float64(100-f*5), 50, 10, 10), Class: "truck"},
		}
		out := tr.Update(f, obs)
		if f == 0 {
			id0, id1 = out[0].TrackID, out[1].TrackID
		} else {
			if out[0].TrackID != id0 || out[1].TrackID != id1 {
				t.Fatalf("frame %d: ids = (%d,%d), want (%d,%d)",
					f, out[0].TrackID, out[1].TrackID, id0, id1)
			}
		}
	}
	if len(tr.Tracks()) != 2 {
		t.Fatalf("tracks = %d", len(tr.Tracks()))
	}
}

func TestTrackerObservationBookkeeping(t *testing.T) {
	tr := NewTracker()
	tr.Update(3, []Observation{{Box: b(0, 0, 10, 10), Ref: 42, Score: 0.9}})
	tracks := tr.Tracks()
	o := tracks[0].Obs[0]
	if o.Frame != 3 || o.Ref != 42 || o.Score != 0.9 {
		t.Fatalf("observation = %+v", o)
	}
	if len(tracks[0].Obs) != 1 {
		t.Fatalf("track has %d observations, want 1", len(tracks[0].Obs))
	}
}

func TestTrackAll(t *testing.T) {
	frames := [][]Observation{
		{{Box: b(0, 0, 10, 10)}},
		{{Box: b(1, 0, 10, 10)}},
		{},
		{{Box: b(3, 0, 10, 10)}},
	}
	perFrame, tracks := TrackAll(frames)
	if len(perFrame) != 4 {
		t.Fatalf("perFrame = %d", len(perFrame))
	}
	if len(tracks) != 1 {
		t.Fatalf("tracks = %d (gap of 1 should not split)", len(tracks))
	}
	if len(tracks[0].Obs) != 3 {
		t.Fatalf("obs = %d", len(tracks[0].Obs))
	}
}

func TestTrackerEmptyFrames(t *testing.T) {
	tr := NewTracker()
	if out := tr.Update(0, nil); len(out) != 0 {
		t.Fatalf("Update(nil) = %v", out)
	}
	if len(tr.Tracks()) != 0 {
		t.Fatal("tracks created from empty frame")
	}
}
