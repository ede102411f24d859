// Package avscenes is the autonomous-vehicle domain of the paper's
// evaluation (§5.1, NuScenes): a LIDAR 3D detector and a camera 2D
// detector observe the same scenes, with two deployed model assertions —
// agree (2D and 3D detections must be consistent after projecting the 3D
// boxes onto the camera plane) and multibox. The camera (SSD) model is
// the one improved by active learning and weak supervision; the LIDAR
// model is bootstrapped once and fixed, and its detections provide the
// cross-sensor weak-supervision rule (impute 2D boxes from 3D
// detections).
//
// Data points are scenes (NuScenes annotates per scene), so selection,
// labeling and training happen at scene granularity.
package avscenes

import (
	"omg/internal/assertion"
	"omg/internal/bandit"
	"omg/internal/detection"
	"omg/internal/geometry"
	"omg/internal/lidar"
	"omg/internal/simrand"
	"omg/internal/video"
)

// Assertion indices within severity vectors.
const (
	IdxAgree = iota
	IdxMultibox
	NumAssertions
)

// AssertionNames lists the deployed assertions in severity-vector order.
var AssertionNames = []string{"agree", "multibox"}

// Config parameterises the domain.
type Config struct {
	Seed int64
	// PoolScenes is the number of unlabeled scenes (paper: 175).
	PoolScenes int
	// TestScenes is the held-out scene count (paper: 75).
	TestScenes int
	// AgreeIoU is the minimum projected-box overlap for the sensors to
	// agree on an object. Default 0.1 (generous: projection is coarse).
	AgreeIoU float64
	// MultiboxIoU is the multibox pairwise threshold. Default 0.4.
	MultiboxIoU float64
}

func (c Config) withDefaults() Config {
	if c.PoolScenes <= 0 {
		c.PoolScenes = 175
	}
	if c.TestScenes <= 0 {
		c.TestScenes = 75
	}
	if c.AgreeIoU <= 0 {
		c.AgreeIoU = 0.1
	}
	if c.MultiboxIoU <= 0 {
		c.MultiboxIoU = 0.4
	}
	return c
}

// Domain implements activelearn.Domain for the AV task.
type Domain struct {
	cfg Config
	cam geometry.Camera

	pool []lidar.Scene
	test []lidar.Scene
	// pool2D[s][f] is the projected camera ground truth for pool scene s
	// frame f; test2D likewise.
	pool2D [][]video.Frame
	test2D [][]video.Frame

	camModel *detection.Model
	lidarDet *lidar.Detector
}

// New builds the domain: generates the world, projects camera ground
// truth, and bootstraps the (fixed) LIDAR detector and the fresh camera
// detector.
func New(cfg Config) *Domain {
	cfg = cfg.withDefaults()
	d := &Domain{cfg: cfg, cam: geometry.DefaultCamera()}
	d.pool = lidar.Generate(lidar.Config{
		Seed:      simrand.DeriveSeed(cfg.Seed, "av-pool"),
		NumScenes: cfg.PoolScenes,
	})
	d.test = lidar.Generate(lidar.Config{
		Seed:      simrand.DeriveSeed(cfg.Seed, "av-test"),
		NumScenes: cfg.TestScenes,
	})
	d.pool2D = projectAll(d.cam, d.pool)
	d.test2D = projectAll(d.cam, d.test)
	d.lidarDet = lidar.NewDetector(simrand.DeriveSeed(cfg.Seed, "av-lidar"), lidar.DefaultDetectorParams())
	d.Reset(cfg.Seed)
	return d
}

func projectAll(cam geometry.Camera, scenes []lidar.Scene) [][]video.Frame {
	out := make([][]video.Frame, len(scenes))
	for si, s := range scenes {
		frames := make([]video.Frame, len(s.Frames))
		for fi, f := range s.Frames {
			frames[fi], _ = lidar.ProjectFrame(cam, f)
		}
		out[si] = frames
	}
	return out
}

// Agree is the paper's custom cross-sensor assertion: project each LIDAR
// 3D detection onto the camera plane and count detections that have no
// sufficiently-overlapping counterpart from the other sensor (in either
// direction). If it returns nonzero, at least one of the sensors is
// wrong.
func Agree(cam geometry.Camera, lidarDets []lidar.Detection3D, camDets []detection.Detection, iou float64) float64 {
	var projected []geometry.Box2D
	for _, ld := range lidarDets {
		if box, ok := cam.ProjectBox(ld.Box); ok {
			projected = append(projected, box)
		}
	}
	failures := 0
	for _, lb := range projected {
		matched := false
		for _, cd := range camDets {
			if lb.IoU(cd.Box) >= iou {
				matched = true
				break
			}
		}
		if !matched {
			failures++
		}
	}
	for _, cd := range camDets {
		matched := false
		for _, lb := range projected {
			if cd.Box.IoU(lb) >= iou {
				matched = true
				break
			}
		}
		if !matched {
			failures++
		}
	}
	return float64(failures)
}

// Name implements activelearn.Domain.
func (d *Domain) Name() string { return "nuscenes" }

// NumAssertions implements activelearn.Domain.
func (d *Domain) NumAssertions() int { return NumAssertions }

// PoolSize implements activelearn.Domain (pool elements are scenes).
func (d *Domain) PoolSize() int { return len(d.pool) }

// Reset implements activelearn.Domain.
func (d *Domain) Reset(seed int64) {
	d.camModel = detection.New(simrand.DeriveSeed(seed, "av-camera"), detection.AVCameraParams())
}

// Model exposes the camera model under improvement.
func (d *Domain) Model() *detection.Model { return d.camModel }

// LidarDetector exposes the fixed LIDAR model.
func (d *Domain) LidarDetector() *lidar.Detector { return d.lidarDet }

// PoolScene returns a pool scene and its projected camera frames.
func (d *Domain) PoolScene(i int) (lidar.Scene, []video.Frame) {
	return d.pool[i], d.pool2D[i]
}

// sceneTrainWeight discounts per-frame exposure within a labeled scene:
// a scene's 40 frames at 2 Hz are highly correlated views of the same few
// vehicles, worth far less than 40 independent frames (the paper trains
// one epoch at a small learning rate).
const sceneTrainWeight = 0.2

// Train implements activelearn.Domain: labels whole scenes.
func (d *Domain) Train(sceneIdx []int) {
	var frames []video.Frame
	for _, si := range sceneIdx {
		if si >= 0 && si < len(d.pool2D) {
			frames = append(frames, d.pool2D[si]...)
		}
	}
	d.camModel.Train(frames, sceneTrainWeight)
}

// Evaluate implements activelearn.Domain: camera mAP on test scenes.
func (d *Domain) Evaluate() float64 {
	var frames []video.Frame
	for _, sf := range d.test2D {
		frames = append(frames, sf...)
	}
	return d.camModel.EvaluateMAP(frames)
}

// FrameAssessment carries one frame's assertion state (used by Assess and
// by the precision experiments).
type FrameAssessment struct {
	AgreeSeverity    float64
	MultiboxSeverity float64
	Uncertainty      float64
	CamDets          []detection.Detection
	LidarDets        []lidar.Detection3D
}

// AssessFrame evaluates both assertions on one pool frame.
func (d *Domain) AssessFrame(scene, frame int) FrameAssessment {
	f3d := d.pool[scene].Frames[frame]
	f2d := d.pool2D[scene][frame]
	camDets := d.camModel.Detect(f2d)
	lidarDets := d.lidarDet.Detect(f3d)

	boxes := make([]geometry.Box2D, len(camDets))
	minConf := 1.0
	for i, cd := range camDets {
		boxes[i] = cd.Box
		if cd.Score < minConf {
			minConf = cd.Score
		}
	}
	unc := 0.0
	if len(camDets) > 0 {
		unc = 1 - minConf
	}
	return FrameAssessment{
		AgreeSeverity:    Agree(d.cam, lidarDets, camDets, d.cfg.AgreeIoU),
		MultiboxSeverity: float64(geometry.CountOverlappingTriples(boxes, d.cfg.MultiboxIoU)),
		Uncertainty:      unc,
		CamDets:          camDets,
		LidarDets:        lidarDets,
	}
}

// Assess implements activelearn.Domain: per-scene severity vectors are
// the sums over the scene's frames; uncertainty is the per-frame mean.
func (d *Domain) Assess() []bandit.Candidate {
	out := make([]bandit.Candidate, len(d.pool))
	for si := range d.pool {
		sev := make(assertion.Vector, NumAssertions)
		uncSum := 0.0
		n := len(d.pool[si].Frames)
		for fi := 0; fi < n; fi++ {
			fa := d.AssessFrame(si, fi)
			sev[IdxAgree] += fa.AgreeSeverity
			sev[IdxMultibox] += fa.MultiboxSeverity
			uncSum += fa.Uncertainty
		}
		unc := 0.0
		if n > 0 {
			unc = uncSum / float64(n)
		}
		out[si] = bandit.Candidate{Index: si, Severities: sev, Uncertainty: unc}
	}
	return out
}

// Suite returns a runtime-monitoring suite over samples whose Output is a
// SensorPair, in severity-vector order (agree, multibox).
func (d *Domain) Suite() *assertion.Suite {
	agreeIoU, mbIoU := d.cfg.AgreeIoU, d.cfg.MultiboxIoU
	cam := d.cam
	agree := assertion.New("av:agree", func(window []assertion.Sample) float64 {
		if len(window) == 0 {
			return 0
		}
		pair, ok := window[len(window)-1].Output.(SensorPair)
		if !ok {
			return 0
		}
		return Agree(cam, pair.Lidar, pair.Camera, agreeIoU)
	})
	multibox := assertion.New("av:multibox", func(window []assertion.Sample) float64 {
		if len(window) == 0 {
			return 0
		}
		pair, ok := window[len(window)-1].Output.(SensorPair)
		if !ok {
			return 0
		}
		boxes := make([]geometry.Box2D, len(pair.Camera))
		for i, cd := range pair.Camera {
			boxes[i] = cd.Box
		}
		return float64(geometry.CountOverlappingTriples(boxes, mbIoU))
	})
	return assertion.NewSuite(agree, multibox)
}

// SensorPair is the joint model output for one AV frame: both sensors'
// detections, the input to the cross-sensor assertions.
type SensorPair struct {
	Lidar  []lidar.Detection3D
	Camera []detection.Detection
}
