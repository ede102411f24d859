// Package metrics implements the evaluation metrics used throughout the
// paper's experiments: mean average precision (mAP) for object detection
// (Figures 4, 9 and Table 4) and the summary statistics the experiments
// report (mean, standard deviation, percentile rank).
//
// The detection metric is a full implementation — greedy confidence-ordered
// matching against ground truth at a configurable IoU threshold, all-point
// interpolated average precision per class, averaged into mAP — not a
// mock, so measured numbers respond to real changes in detection quality.
package metrics

import (
	"math"
	"sort"

	"omg/internal/geometry"
)

// Det is a single detection to be scored.
type Det struct {
	// Frame identifies the image the detection belongs to; matching only
	// pairs detections and ground truths within the same frame.
	Frame int
	Class string
	Box   geometry.Box2D
	Score float64
}

// GT is a single ground-truth box.
type GT struct {
	Frame int
	Class string
	Box   geometry.Box2D
	// Difficult ground truths are ignored: detections matching them are
	// neither credited nor penalised (the PASCAL VOC convention).
	Difficult bool
}

// PRPoint is one point on a precision/recall curve.
type PRPoint struct {
	Recall, Precision float64
	Score             float64
}

// APResult holds the per-class average-precision computation output.
type APResult struct {
	Class   string
	AP      float64
	Curve   []PRPoint
	NumGT   int
	NumDet  int
	NumTP   int
	NumFP   int
	Matched int
}

// Evaluator scores detections against ground truth.
type Evaluator struct {
	// IoUThreshold for a detection to match a ground truth (default 0.5).
	IoUThreshold float64
}

// NewEvaluator returns an evaluator using the standard IoU 0.5 criterion.
func NewEvaluator() *Evaluator { return &Evaluator{IoUThreshold: 0.5} }

// frameKey groups ground truths by (frame, class).
type frameKey struct {
	frame int
	class string
}

// AP computes the average precision for a single class using all-point
// interpolation (the COCO/modern convention). Detections of other classes
// are ignored.
func (e *Evaluator) AP(class string, dets []Det, gts []GT) APResult {
	thr := e.IoUThreshold
	if thr <= 0 {
		thr = 0.5
	}

	// Index ground truths by frame.
	gtByFrame := make(map[frameKey][]int)
	numGT := 0
	for i, g := range gts {
		if g.Class != class {
			continue
		}
		k := frameKey{frame: g.Frame, class: class}
		gtByFrame[k] = append(gtByFrame[k], i)
		if !g.Difficult {
			numGT++
		}
	}

	// Collect and sort class detections by descending score.
	classDets := make([]int, 0, len(dets))
	for i, d := range dets {
		if d.Class == class {
			classDets = append(classDets, i)
		}
	}
	sort.SliceStable(classDets, func(a, b int) bool {
		return dets[classDets[a]].Score > dets[classDets[b]].Score
	})

	matched := make(map[int]bool) // gt index -> already matched
	res := APResult{Class: class, NumGT: numGT, NumDet: len(classDets)}

	type mark struct {
		tp, ignore bool
		score      float64
	}
	marks := make([]mark, 0, len(classDets))
	for _, di := range classDets {
		d := dets[di]
		k := frameKey{frame: d.Frame, class: class}
		bestIoU := 0.0
		bestGT := -1
		for _, gi := range gtByFrame[k] {
			iou := d.Box.IoU(gts[gi].Box)
			if iou >= thr && iou > bestIoU && !matched[gi] {
				bestIoU = iou
				bestGT = gi
			}
		}
		m := mark{score: d.Score}
		if bestGT >= 0 {
			matched[bestGT] = true
			if gts[bestGT].Difficult {
				m.ignore = true
			} else {
				m.tp = true
			}
		}
		marks = append(marks, m)
	}

	// Build the PR curve.
	tp, fp := 0, 0
	curve := make([]PRPoint, 0, len(marks))
	for _, m := range marks {
		if m.ignore {
			continue
		}
		if m.tp {
			tp++
		} else {
			fp++
		}
		recall := 0.0
		if numGT > 0 {
			recall = float64(tp) / float64(numGT)
		}
		precision := float64(tp) / float64(tp+fp)
		curve = append(curve, PRPoint{Recall: recall, Precision: precision, Score: m.score})
	}
	res.NumTP = tp
	res.NumFP = fp
	res.Matched = len(matched)
	res.Curve = curve
	res.AP = allPointAP(curve)
	if numGT == 0 {
		// No ground truth for the class: AP is defined as 0 unless there
		// are also no detections, in which case the class is vacuously
		// perfect.
		if len(curve) == 0 {
			res.AP = 1
		} else {
			res.AP = 0
		}
	}
	return res
}

// allPointAP integrates precision over recall using the all-point
// interpolation: precision at each recall level is the maximum precision at
// any recall >= that level.
func allPointAP(curve []PRPoint) float64 {
	if len(curve) == 0 {
		return 0
	}
	// Envelope: running max of precision from the right.
	env := make([]float64, len(curve))
	maxP := 0.0
	for i := len(curve) - 1; i >= 0; i-- {
		maxP = math.Max(maxP, curve[i].Precision)
		env[i] = maxP
	}
	ap := 0.0
	prevRecall := 0.0
	for i, p := range curve {
		if p.Recall > prevRecall {
			ap += (p.Recall - prevRecall) * env[i]
			prevRecall = p.Recall
		}
	}
	return ap
}

// MAPResult aggregates per-class AP into mean average precision.
type MAPResult struct {
	MAP       float64
	PerClass  []APResult
	NumFrames int
}

// MAP computes the mean AP over the union of classes present in the ground
// truth. Classes that appear only in detections contribute AP 0 (those
// detections are all false positives for a non-existent class).
func (e *Evaluator) MAP(dets []Det, gts []GT) MAPResult {
	classSet := make(map[string]bool)
	frames := make(map[int]bool)
	for _, g := range gts {
		classSet[g.Class] = true
		frames[g.Frame] = true
	}
	for _, d := range dets {
		classSet[d.Class] = true
		frames[d.Frame] = true
	}
	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	res := MAPResult{NumFrames: len(frames)}
	if len(classes) == 0 {
		return res
	}
	sum := 0.0
	for _, c := range classes {
		ap := e.AP(c, dets, gts)
		res.PerClass = append(res.PerClass, ap)
		sum += ap.AP
	}
	res.MAP = sum / float64(len(classes))
	return res
}
