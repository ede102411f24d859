package detection

import (
	"math"
	"sort"
	"testing"

	"omg/internal/metrics"
	"omg/internal/video"
)

func testFrames(t *testing.T, n int) []video.Frame {
	t.Helper()
	return video.Generate(video.Config{Seed: 11, NumFrames: n})
}

func TestDetectDeterministic(t *testing.T) {
	frames := testFrames(t, 50)
	m1 := New(1, DefaultParams())
	m2 := New(1, DefaultParams())
	for _, f := range frames {
		a, b := m1.Detect(f), m2.Detect(f)
		if len(a) != len(b) {
			t.Fatalf("frame %d: %d vs %d detections", f.Index, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("frame %d det %d differs: %+v vs %+v", f.Index, i, a[i], b[i])
			}
		}
	}
}

func TestDetectSeedChangesErrors(t *testing.T) {
	frames := testFrames(t, 100)
	m1, m2 := New(1, DefaultParams()), New(2, DefaultParams())
	d1, d2 := 0, 0
	for _, f := range frames {
		d1 += len(m1.Detect(f))
		d2 += len(m2.Detect(f))
	}
	if d1 == d2 {
		t.Skip("seeds coincidentally identical counts") // vanishingly unlikely
	}
}

func TestRateDecaysWithExposure(t *testing.T) {
	m := New(1, DefaultParams())
	before := m.Rate(ModeFlicker)
	m.exposure[ModeFlicker] += 500
	after := m.Rate(ModeFlicker)
	if after >= before {
		t.Fatalf("rate did not decay: %v -> %v", before, after)
	}
	floor := DefaultParams().Modes[ModeFlicker].Floor
	m.exposure[ModeFlicker] += 1e9
	if got := m.Rate(ModeFlicker); math.Abs(got-floor) > 1e-9 {
		t.Fatalf("rate floor = %v, want %v", got, floor)
	}
}

func TestRateUnknownModeZero(t *testing.T) {
	m := New(1, Params{Modes: map[Mode]ModeParams{}, MaxFPPerFrame: 1})
	if m.Rate(ModeFlicker) != 0 {
		t.Fatal("unconfigured mode should have rate 0")
	}
}

func TestTrainingReducesErrors(t *testing.T) {
	frames := testFrames(t, 300)
	m := New(1, DefaultParams())
	countErrors := func() (misses, dups int, flipRate float64) {
		tps, flips := 0, 0
		for _, f := range frames {
			dets := m.Detect(f)
			found := make(map[int]bool)
			for _, d := range dets {
				switch d.Provenance {
				case ProvDuplicate:
					dups++
				case ProvTruePositive:
					tps++
					found[d.GTTrack] = true
					if d.Flipped {
						flips++
					}
				}
			}
			for _, o := range f.Objects {
				if !found[o.TrackID] {
					misses++
				}
			}
		}
		if tps > 0 {
			flipRate = float64(flips) / float64(tps)
		}
		return
	}
	countFlipRealizations := func() int {
		// Visible flip fractions on a single short scene are dominated by
		// small-sample noise (few tracks), so the flip invariant is
		// checked on the realisation probability itself over many
		// synthetic (track, block) events.
		hits := 0
		for tid := int64(1); tid <= 1000; tid++ {
			for block := int64(0); block < 12; block++ {
				if m.realized(ModeClassFlip, evClassFlip, tid, block) {
					hits++
				}
			}
		}
		return hits
	}
	m0, d0, _ := countErrors()
	fl0 := countFlipRealizations()
	for i := 0; i < 3; i++ {
		m.Train(frames, 1)
	}
	m1, d1, _ := countErrors()
	fl1 := countFlipRealizations()
	if m1 >= m0 {
		t.Fatalf("misses did not decrease: %d -> %d", m0, m1)
	}
	if d1 >= d0 {
		t.Fatalf("duplicates did not decrease: %d -> %d", d0, d1)
	}
	if fl1 >= fl0 {
		t.Fatalf("class-flip realisations did not decrease: %d -> %d", fl0, fl1)
	}
}

func TestTrainingMonotoneErrorRemoval(t *testing.T) {
	// Error *events* are realised by hashing against the current rate, so
	// training can only remove them. Observable consequence: the set of
	// missed (frame, track) pairs after training is a subset of the set
	// before. (Duplicates can *surface* when a previously-missed object
	// becomes visible, so the subset property is stated on misses.)
	frames := testFrames(t, 600)
	m := New(3, DefaultParams())
	missed := func() map[[2]int]bool {
		out := make(map[[2]int]bool)
		for _, f := range frames {
			found := make(map[int]bool)
			for _, d := range m.Detect(f) {
				if d.Provenance == ProvTruePositive {
					found[d.GTTrack] = true
				}
			}
			for _, o := range f.Objects {
				if !found[o.TrackID] {
					out[[2]int{f.Index, o.TrackID}] = true
				}
			}
		}
		return out
	}
	before := missed()
	for i := 0; i < 4; i++ {
		m.Train(frames, 1)
	}
	after := missed()
	for k := range after {
		if !before[k] {
			t.Fatalf("new miss appeared after training: frame %d track %d", k[0], k[1])
		}
	}
	if len(after) >= len(before) {
		t.Fatalf("training removed no misses: %d -> %d", len(before), len(after))
	}
}

func TestTrainZeroWeightNoop(t *testing.T) {
	frames := testFrames(t, 20)
	m := New(1, DefaultParams())
	m.Train(frames, 0)
	for mode := Mode(0); mode < numModes; mode++ {
		if m.exposure[mode] != 0 {
			t.Fatalf("zero-weight training changed exposure of %v", mode)
		}
	}
}

func TestDuplicatesOverlapOriginal(t *testing.T) {
	frames := testFrames(t, 300)
	m := New(1, DefaultParams())
	foundDup := false
	for _, f := range frames {
		dets := m.Detect(f)
		byTrack := make(map[int][]Detection)
		for _, d := range dets {
			if d.GTTrack != 0 {
				byTrack[d.GTTrack] = append(byTrack[d.GTTrack], d)
			}
		}
		for _, group := range byTrack {
			if len(group) < 3 {
				continue
			}
			foundDup = true
			for i := 1; i < len(group); i++ {
				if group[0].Box.IoU(group[i].Box) < 0.3 {
					t.Fatalf("duplicate does not overlap original: IoU = %v",
						group[0].Box.IoU(group[i].Box))
				}
			}
		}
	}
	if !foundDup {
		t.Fatal("no duplicate (multibox) errors generated in 300 frames")
	}
}

func TestHighConfidenceErrorStructure(t *testing.T) {
	// Systematic errors (duplicates, flips) must be high-confidence
	// relative to the overall box population — the Figure 3 phenomenon.
	frames := testFrames(t, 400)
	m := New(1, DefaultParams())
	var all, systematic []float64
	for _, f := range frames {
		for _, d := range m.Detect(f) {
			all = append(all, d.Score)
			if d.Provenance == ProvDuplicate || d.Flipped {
				systematic = append(systematic, d.Score)
			}
		}
	}
	if len(systematic) < 10 {
		t.Fatalf("too few systematic errors: %d", len(systematic))
	}
	// The Figure 3 phenomenon: the most confident systematic errors rank
	// in a high percentile of the overall confidence distribution, so
	// uncertainty-based sampling cannot find them.
	sort.Float64s(systematic)
	top := systematic[len(systematic)-1]
	if rank := metrics.PercentileRank(all, top); rank < 85 {
		t.Fatalf("top systematic error only at percentile %.1f", rank)
	}
	// And the typical systematic error is not low-confidence either.
	median := systematic[len(systematic)/2]
	if rank := metrics.PercentileRank(all, median); rank < 30 {
		t.Fatalf("median systematic error at percentile %.1f: too easy for uncertainty sampling", rank)
	}
}

func TestFlipClassNeverIdentity(t *testing.T) {
	for tid := int64(0); tid < 200; tid++ {
		for _, c := range video.Classes {
			if got := flipClass(c, 9, tid, 0); got == c {
				t.Fatalf("flipClass returned the true class %q", c)
			}
		}
	}
}

func TestEvaluateMAPInRangeAndImproves(t *testing.T) {
	frames := testFrames(t, 150)
	m := New(1, DefaultParams())
	before := m.EvaluateMAP(frames)
	if before <= 0 || before >= 1 {
		t.Fatalf("initial mAP = %v out of (0,1)", before)
	}
	train := video.Generate(video.Config{Seed: 12, NumFrames: 400})
	m.Train(train, 1)
	m.Train(train, 1)
	after := m.EvaluateMAP(frames)
	if after <= before {
		t.Fatalf("mAP did not improve: %v -> %v", before, after)
	}
}

func TestAssessFrameCountsRealizedErrors(t *testing.T) {
	frames := testFrames(t, 200)
	m := New(1, DefaultParams())
	totalFlicker := 0.0
	for _, f := range frames {
		c := m.AssessFrame(f)
		for mode, v := range c {
			if v < 0 {
				t.Fatalf("negative count for %v", mode)
			}
		}
		totalFlicker += c[ModeFlicker]
	}
	if totalFlicker == 0 {
		t.Fatal("no flicker instances assessed in 200 frames")
	}
}

func TestTrainWeakTargetsMode(t *testing.T) {
	m := New(1, DefaultParams())
	m.TrainWeak(WeakFlickerFill, 100)
	if m.exposure[ModeFlicker] <= 0 {
		t.Fatal("weak flicker labels did not add flicker exposure")
	}
	if m.exposure[ModeDuplicate] != 0 {
		t.Fatal("weak flicker labels leaked into duplicate mode")
	}
	m2 := New(1, DefaultParams())
	m2.TrainWeak(WeakCrossSensorBox, 50)
	if m2.exposure[ModeMissSmall] <= 0 || m2.exposure[ModeMissOccluded] <= 0 {
		t.Fatal("cross-sensor weak labels did not teach miss modes")
	}
	m2.TrainWeak(WeakDuplicateRemoval, 0)
	if m2.exposure[ModeDuplicate] != 0 {
		t.Fatal("zero-count weak training changed exposure")
	}
}

func TestModeString(t *testing.T) {
	for mode := Mode(0); mode < numModes; mode++ {
		if mode.String() == "" {
			t.Fatalf("mode %d has empty name", mode)
		}
	}
	if Mode(99).String() != "mode(99)" {
		t.Fatalf("unknown mode string = %q", Mode(99).String())
	}
}
