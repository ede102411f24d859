// Package track implements a greedy IoU-based multi-object tracker. The
// paper's consistency assertions (§4) need identifiers for model outputs;
// for video domains that lack a globally unique identifier (no license
// plates), the paper assigns "a new identifier for each box that appears
// and ... the same identifier as it persists through the video". This
// package provides exactly that identifier assignment, and is also the
// substrate for the human-label validation experiment (Appendix E), which
// tracks objects across frames to check that the same object keeps the
// same label.
package track

import (
	"sort"

	"omg/internal/geometry"
)

// Observation is one detection handed to the tracker for one frame.
type Observation struct {
	// Box is the detection's bounding box.
	Box geometry.Box2D
	// Class is the detector's class label (carried through to the track,
	// not used for matching: class flips must not break the track, or
	// class-consistency assertions could never fire).
	Class string
	// Score is the detection confidence (carried through).
	Score float64
	// Ref is the caller's index for this observation.
	Ref int
}

// TrackedObservation is an observation annotated with its assigned track.
type TrackedObservation struct {
	Observation
	TrackID int
	Frame   int
}

// Track is the history of one tracked object.
type Track struct {
	ID        int
	Obs       []TrackedObservation
	lastFrame int
}

// MajorityClass returns the most common class label across the track's
// observations, breaking ties lexicographically. Empty tracks return "".
func (t *Track) MajorityClass() string {
	if len(t.Obs) == 0 {
		return ""
	}
	counts := make(map[string]int)
	for _, o := range t.Obs {
		counts[o.Class]++
	}
	best, bestN := "", -1
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestN {
			best, bestN = k, counts[k]
		}
	}
	return best
}

// Tracker assigns stable identifiers to detections across frames by greedy
// IoU matching: each new detection is matched to the live track whose most
// recent box overlaps it the most, provided IoU exceeds the threshold.
// Tracks not matched for more than MaxGap frames are retired.
type Tracker struct {
	// IoUThreshold is the minimum overlap to continue a track (default
	// 0.3).
	IoUThreshold float64
	// MaxGap is how many frames a track may go unmatched before it is
	// retired (default 2). A gap of >= 1 is what lets flickering objects
	// re-join their track, which the flicker assertion depends on.
	MaxGap int

	nextID  int
	live    []*Track
	retired []*Track
}

// NewTracker returns a tracker with the default matching parameters.
func NewTracker() *Tracker {
	return &Tracker{IoUThreshold: 0.3, MaxGap: 2, nextID: 1}
}

// Update ingests the detections of one frame (frames must be presented in
// increasing order) and returns the observations annotated with track IDs.
// New tracks are created for unmatched detections.
func (tr *Tracker) Update(frame int, obs []Observation) []TrackedObservation {
	// Retire stale tracks first.
	maxGap := tr.MaxGap
	if maxGap < 0 {
		maxGap = 0
	}
	liveNext := tr.live[:0]
	for _, t := range tr.live {
		if frame-t.lastFrame > maxGap+1 {
			tr.retired = append(tr.retired, t)
		} else {
			liveNext = append(liveNext, t)
		}
	}
	tr.live = liveNext

	thr := tr.IoUThreshold
	if thr <= 0 {
		thr = 0.3
	}

	// Build all candidate (track, obs) pairs above threshold and match
	// greedily by descending IoU.
	type pair struct {
		track, obs int
		iou        float64
	}
	var pairs []pair
	for ti, t := range tr.live {
		last := t.Obs[len(t.Obs)-1].Box
		for oi, o := range obs {
			if iou := last.IoU(o.Box); iou >= thr {
				pairs = append(pairs, pair{track: ti, obs: oi, iou: iou})
			}
		}
	}
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].iou > pairs[j].iou })

	trackUsed := make(map[int]bool)
	obsUsed := make(map[int]bool)
	assignment := make(map[int]*Track) // obs index -> track
	for _, p := range pairs {
		if trackUsed[p.track] || obsUsed[p.obs] {
			continue
		}
		trackUsed[p.track] = true
		obsUsed[p.obs] = true
		assignment[p.obs] = tr.live[p.track]
	}

	out := make([]TrackedObservation, len(obs))
	for oi, o := range obs {
		t := assignment[oi]
		if t == nil {
			t = &Track{ID: tr.nextID}
			tr.nextID++
			tr.live = append(tr.live, t)
		}
		to := TrackedObservation{Observation: o, TrackID: t.ID, Frame: frame}
		t.Obs = append(t.Obs, to)
		t.lastFrame = frame
		out[oi] = to
	}
	return out
}

// Tracks returns all tracks (live and retired) sorted by ID.
func (tr *Tracker) Tracks() []*Track {
	out := make([]*Track, 0, len(tr.live)+len(tr.retired))
	out = append(out, tr.retired...)
	out = append(out, tr.live...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TrackAll is a convenience that runs a fresh tracker over per-frame
// detection lists (index = frame number) and returns the per-frame tracked
// observations plus the final track set.
func TrackAll(frames [][]Observation) ([][]TrackedObservation, []*Track) {
	tr := NewTracker()
	out := make([][]TrackedObservation, len(frames))
	for f, obs := range frames {
		out[f] = tr.Update(f, obs)
	}
	return out, tr.Tracks()
}
