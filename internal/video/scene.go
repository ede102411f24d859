// Package video generates synthetic street-scene video ground truth: the
// substitute for the paper's night-street video (§5.1). Each generated
// frame carries ground-truth vehicle boxes with track identities and the
// per-object *contexts* (small, low-contrast, occluded) that determine
// which systematic error modes of the simulated detector
// (internal/detection) apply to them.
package video

import (
	"omg/internal/geometry"
	"omg/internal/simrand"
)

// Classes are the vehicle classes present in the synthetic video, roughly
// matching the vehicle classes the paper's deployment detects.
var Classes = []string{"car", "truck", "bus"}

// Object is a ground-truth object instance on one frame.
type Object struct {
	// TrackID is the object's stable identity across frames (>= 1).
	TrackID int
	// Class is the true class label.
	Class string
	// Box is the ground-truth bounding box in image coordinates.
	Box geometry.Box2D
	// Small marks objects whose box is small enough to be systematically
	// hard for the detector (distant vehicles).
	Small bool
	// LowContrast marks objects that are poorly lit (the night-street
	// failure mode).
	LowContrast bool
	// Occluded marks objects substantially covered by another object on
	// this frame.
	Occluded bool
}

// Frame is one frame of ground truth.
type Frame struct {
	Index   int
	Time    float64
	Objects []Object
}

// Config parameterises the scene generator.
type Config struct {
	Seed      int64
	NumFrames int
	// FPS is the frame rate; Frame.Time = Index / FPS. Default 10.
	FPS float64
	// Width, Height of the image in pixels. Default 1280x720.
	Width, Height float64
	// SpawnRate is the expected number of new objects per frame.
	// Default 0.035 (steady state of roughly four vehicles on screen).
	SpawnRate float64
	// SmallProb is the probability a spawned object is small. Default 0.25.
	SmallProb float64
	// LowContrastProb is the probability a spawned object is low-contrast.
	// Default 0.2.
	LowContrastProb float64
	// MeanSpeed is the mean horizontal speed in pixels/frame. Default 14.
	MeanSpeed float64
}

func (c Config) withDefaults() Config {
	if c.FPS <= 0 {
		c.FPS = 10
	}
	if c.Width <= 0 {
		c.Width = 1280
	}
	if c.Height <= 0 {
		c.Height = 720
	}
	if c.SpawnRate <= 0 {
		c.SpawnRate = 0.035
	}
	if c.SmallProb <= 0 {
		c.SmallProb = 0.25
	}
	if c.LowContrastProb <= 0 {
		c.LowContrastProb = 0.2
	}
	if c.MeanSpeed <= 0 {
		c.MeanSpeed = 14
	}
	return c
}

// mover is a live object's motion state during generation.
type mover struct {
	obj       Object
	x, y      float64 // box centre
	w, h      float64
	vx, vy    float64
	wobbleRNG *simrand.RNG
}

// Generate produces the ground-truth frames for the configured scene.
// Generation is deterministic in Config.Seed.
func Generate(cfg Config) []Frame {
	cfg = cfg.withDefaults()
	rng := simrand.NewStream(cfg.Seed, "video-scene")

	frames := make([]Frame, cfg.NumFrames)
	var live []*mover
	nextTrack := 1

	spawn := func(frameIdx int) *mover {
		small := rng.Bool(cfg.SmallProb)
		low := rng.Bool(cfg.LowContrastProb)
		classIdx := rng.WeightedChoice([]float64{0.7, 0.2, 0.1})
		class := Classes[classIdx]

		w := rng.Uniform(90, 160)
		h := w * rng.Uniform(0.55, 0.75)
		if class == "bus" {
			w *= 1.4
		}
		if small {
			w = rng.Uniform(26, 46)
			h = w * rng.Uniform(0.6, 0.8)
		}
		// Enter from the left or right edge; lane (vertical band) random.
		fromLeft := rng.Bool(0.5)
		y := rng.Uniform(cfg.Height*0.35, cfg.Height*0.85)
		var x, vx float64
		speed := rng.ClampedGaussian(cfg.MeanSpeed, cfg.MeanSpeed/3, 4, cfg.MeanSpeed*2.5)
		if small {
			speed *= 0.5 // distant objects move slower in image space
		}
		if fromLeft {
			x = -w / 2
			vx = speed
		} else {
			x = cfg.Width + w/2
			vx = -speed
		}
		m := &mover{
			obj: Object{
				TrackID:     nextTrack,
				Class:       class,
				Small:       small,
				LowContrast: low,
			},
			x: x, y: y, w: w, h: h,
			vx: vx, vy: rng.Uniform(-0.5, 0.5),
			wobbleRNG: rng.Stream("wobble"),
		}
		nextTrack++
		_ = frameIdx
		return m
	}

	for f := 0; f < cfg.NumFrames; f++ {
		// Spawning: Bernoulli approximation of a Poisson process; allow up
		// to two spawns per frame so bursts happen.
		if rng.Bool(cfg.SpawnRate) {
			live = append(live, spawn(f))
		}
		if rng.Bool(cfg.SpawnRate * cfg.SpawnRate) {
			live = append(live, spawn(f))
		}

		// Advance and cull.
		kept := live[:0]
		objs := make([]Object, 0, len(live))
		for _, m := range live {
			m.x += m.vx + m.wobbleRNG.Uniform(-0.8, 0.8)
			m.y += m.vy
			onScreen := m.x+m.w/2 > 0 && m.x-m.w/2 < cfg.Width
			if !onScreen {
				continue
			}
			kept = append(kept, m)
			o := m.obj
			o.Box = geometry.BoxFromCenter(m.x, m.y, m.w, m.h)
			objs = append(objs, o)
		}
		live = kept

		markOcclusions(objs)
		frames[f] = Frame{Index: f, Time: float64(f) / cfg.FPS, Objects: objs}
	}
	return frames
}

// markOcclusions sets Occluded on objects substantially covered by another
// object that is "in front" (lower on screen = closer to the camera, the
// usual traffic-camera geometry).
func markOcclusions(objs []Object) {
	for i := range objs {
		a := &objs[i]
		areaA := a.Box.Area()
		if areaA <= 0 {
			continue
		}
		for j := range objs {
			if i == j {
				continue
			}
			b := objs[j]
			// b occludes a if b is in front (bottom edge lower) and covers
			// a substantial fraction of a.
			if b.Box.Y2 <= a.Box.Y2 {
				continue
			}
			if a.Box.IntersectionArea(b.Box)/areaA > 0.45 {
				a.Occluded = true
				break
			}
		}
	}
}
