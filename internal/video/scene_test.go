package video

import (
	"testing"

	"omg/internal/geometry"
)

func genSmall(t *testing.T) []Frame {
	t.Helper()
	return Generate(Config{Seed: 1, NumFrames: 300})
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Seed: 5, NumFrames: 100})
	b := Generate(Config{Seed: 5, NumFrames: 100})
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if len(a[i].Objects) != len(b[i].Objects) {
			t.Fatalf("frame %d object counts differ", i)
		}
		for j := range a[i].Objects {
			if a[i].Objects[j] != b[i].Objects[j] {
				t.Fatalf("frame %d object %d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedMatters(t *testing.T) {
	a := Generate(Config{Seed: 1, NumFrames: 200})
	b := Generate(Config{Seed: 2, NumFrames: 200})
	sa, sb := summarize(a), summarize(b)
	if sa == sb {
		t.Fatal("different seeds produced identical scene statistics")
	}
}

func TestGenerateFrameMetadata(t *testing.T) {
	frames := Generate(Config{Seed: 1, NumFrames: 50, FPS: 10})
	for i, f := range frames {
		if f.Index != i {
			t.Fatalf("frame %d has Index %d", i, f.Index)
		}
		want := float64(i) / 10
		if f.Time != want {
			t.Fatalf("frame %d Time = %v, want %v", i, f.Time, want)
		}
	}
}

func TestGenerateObjectsHaveValidBoxes(t *testing.T) {
	frames := genSmall(t)
	for _, f := range frames {
		for _, o := range f.Objects {
			if !o.Box.Valid() || o.Box.Area() <= 0 {
				t.Fatalf("frame %d: invalid box %v", f.Index, o.Box)
			}
			if o.TrackID < 1 {
				t.Fatalf("invalid TrackID %d", o.TrackID)
			}
			if o.Class != "car" && o.Class != "truck" && o.Class != "bus" {
				t.Fatalf("unknown class %q", o.Class)
			}
		}
	}
}

func TestGenerateProducesActivity(t *testing.T) {
	s := summarize(genSmall(t))
	if s.Tracks < 10 {
		t.Fatalf("too few tracks: %d", s.Tracks)
	}
	if s.Observations < 300 {
		t.Fatalf("too few observations: %d", s.Observations)
	}
	if s.Small == 0 {
		t.Fatal("no small objects generated")
	}
	if s.LowContrast == 0 {
		t.Fatal("no low-contrast objects generated")
	}
}

func TestGenerateTracksAreContiguousAndMove(t *testing.T) {
	frames := genSmall(t)
	type span struct{ first, last, count int }
	spans := make(map[int]*span)
	for _, f := range frames {
		for _, o := range f.Objects {
			sp, ok := spans[o.TrackID]
			if !ok {
				spans[o.TrackID] = &span{first: f.Index, last: f.Index, count: 1}
				continue
			}
			if f.Index != sp.last+1 {
				t.Fatalf("track %d not contiguous: frame %d after %d", o.TrackID, f.Index, sp.last)
			}
			sp.last = f.Index
			sp.count++
		}
	}
	// Most tracks should persist for multiple frames.
	multi := 0
	for _, sp := range spans {
		if sp.count > 3 {
			multi++
		}
	}
	if multi < len(spans)/2 {
		t.Fatalf("too few persistent tracks: %d of %d", multi, len(spans))
	}
}

func TestGenerateClassStableWithinTrack(t *testing.T) {
	frames := genSmall(t)
	classes := make(map[int]string)
	for _, f := range frames {
		for _, o := range f.Objects {
			if prev, ok := classes[o.TrackID]; ok && prev != o.Class {
				t.Fatalf("track %d changed class %q -> %q", o.TrackID, prev, o.Class)
			}
			classes[o.TrackID] = o.Class
		}
	}
}

func TestGenerateOcclusionsOccur(t *testing.T) {
	// A busy scene should contain at least some occlusions.
	frames := Generate(Config{Seed: 3, NumFrames: 600, SpawnRate: 0.4})
	if summarize(frames).Occluded == 0 {
		t.Fatal("busy scene produced no occlusions")
	}
}

func TestMarkOcclusions(t *testing.T) {
	objs := []Object{
		{TrackID: 1, Box: boxAt(100, 100, 100, 60)},
		// In front (bottom edge lower) and covering most of object 1.
		{TrackID: 2, Box: boxAt(105, 120, 100, 60)},
	}
	markOcclusions(objs)
	if !objs[0].Occluded {
		t.Fatal("covered object not marked occluded")
	}
	if objs[1].Occluded {
		t.Fatal("front object wrongly marked occluded")
	}
}

func TestMarkOcclusionsDisjoint(t *testing.T) {
	objs := []Object{
		{TrackID: 1, Box: boxAt(0, 0, 50, 50)},
		{TrackID: 2, Box: boxAt(500, 500, 50, 50)},
	}
	markOcclusions(objs)
	if objs[0].Occluded || objs[1].Occluded {
		t.Fatal("disjoint objects marked occluded")
	}
}

func boxAt(x, y, w, h float64) geometry.Box2D {
	return geometry.NewBox2D(x, y, x+w, y+h)
}

// sceneStats summarises a generated scene.
type sceneStats struct {
	Frames       int
	Observations int // total object-frame pairs
	Tracks       int
	Small        int
	LowContrast  int
	Occluded     int
}

func summarize(frames []Frame) sceneStats {
	s := sceneStats{Frames: len(frames)}
	tracks := make(map[int]bool)
	for _, f := range frames {
		s.Observations += len(f.Objects)
		for _, o := range f.Objects {
			tracks[o.TrackID] = true
			if o.Small {
				s.Small++
			}
			if o.LowContrast {
				s.LowContrast++
			}
			if o.Occluded {
				s.Occluded++
			}
		}
	}
	s.Tracks = len(tracks)
	return s
}
