// Package geometry provides the 2D/3D box arithmetic every detection
// substrate in this repository depends on: intersection-over-union, box
// containment, non-maximum suppression, a pinhole camera model, and the
// 3D→2D projection used by the paper's cross-sensor "agree" assertion.
package geometry

import (
	"fmt"
	"math"
)

// Box2D is an axis-aligned box in image coordinates. X1/Y1 is the top-left
// corner and X2/Y2 the bottom-right corner; a valid box has X1 <= X2 and
// Y1 <= Y2.
type Box2D struct {
	X1, Y1, X2, Y2 float64
}

// NewBox2D returns the box with the given corners, normalising corner order
// so the result is always valid.
func NewBox2D(x1, y1, x2, y2 float64) Box2D {
	if x1 > x2 {
		x1, x2 = x2, x1
	}
	if y1 > y2 {
		y1, y2 = y2, y1
	}
	return Box2D{X1: x1, Y1: y1, X2: x2, Y2: y2}
}

// BoxFromCenter returns the box centred at (cx, cy) with width w and
// height h. Negative sizes are treated as zero.
func BoxFromCenter(cx, cy, w, h float64) Box2D {
	if w < 0 {
		w = 0
	}
	if h < 0 {
		h = 0
	}
	return Box2D{X1: cx - w/2, Y1: cy - h/2, X2: cx + w/2, Y2: cy + h/2}
}

// Valid reports whether the box has non-negative extent on both axes.
func (b Box2D) Valid() bool {
	return b.X2 >= b.X1 && b.Y2 >= b.Y1
}

// Width returns the horizontal extent of the box.
func (b Box2D) Width() float64 { return b.X2 - b.X1 }

// Height returns the vertical extent of the box.
func (b Box2D) Height() float64 { return b.Y2 - b.Y1 }

// Area returns the area of the box; degenerate boxes have zero area.
func (b Box2D) Area() float64 {
	w, h := b.Width(), b.Height()
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// Center returns the box centre.
func (b Box2D) Center() (x, y float64) {
	return (b.X1 + b.X2) / 2, (b.Y1 + b.Y2) / 2
}

// Translate returns the box shifted by (dx, dy).
func (b Box2D) Translate(dx, dy float64) Box2D {
	return Box2D{X1: b.X1 + dx, Y1: b.Y1 + dy, X2: b.X2 + dx, Y2: b.Y2 + dy}
}

// Scale returns the box scaled about its centre by the given factor.
func (b Box2D) Scale(factor float64) Box2D {
	cx, cy := b.Center()
	return BoxFromCenter(cx, cy, b.Width()*factor, b.Height()*factor)
}

// Intersection returns the overlapping region of a and b. If the boxes do
// not overlap the returned box has zero area (and Valid() may be false).
func (b Box2D) Intersection(o Box2D) Box2D {
	return Box2D{
		X1: math.Max(b.X1, o.X1),
		Y1: math.Max(b.Y1, o.Y1),
		X2: math.Min(b.X2, o.X2),
		Y2: math.Min(b.Y2, o.Y2),
	}
}

// IntersectionArea returns the area of overlap between a and b.
func (b Box2D) IntersectionArea(o Box2D) float64 {
	return b.Intersection(o).Area()
}

// IoU returns intersection-over-union in [0, 1]. Two degenerate boxes have
// IoU 0.
func (b Box2D) IoU(o Box2D) float64 {
	inter := b.IntersectionArea(o)
	if inter <= 0 {
		return 0
	}
	union := b.Area() + o.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Contains reports whether the point (x, y) lies inside the box
// (inclusive).
func (b Box2D) Contains(x, y float64) bool {
	return x >= b.X1 && x <= b.X2 && y >= b.Y1 && y <= b.Y2
}

// ContainsBox reports whether o lies entirely within b.
func (b Box2D) ContainsBox(o Box2D) bool {
	return o.X1 >= b.X1 && o.Y1 >= b.Y1 && o.X2 <= b.X2 && o.Y2 <= b.Y2
}

// Union returns the smallest box containing both a and b.
func (b Box2D) Union(o Box2D) Box2D {
	return Box2D{
		X1: math.Min(b.X1, o.X1),
		Y1: math.Min(b.Y1, o.Y1),
		X2: math.Max(b.X2, o.X2),
		Y2: math.Max(b.Y2, o.Y2),
	}
}

// Clip returns the part of b inside the bounds box. The result may be
// degenerate (zero area) if b lies entirely outside bounds.
func (b Box2D) Clip(bounds Box2D) Box2D {
	c := b.Intersection(bounds)
	if !c.Valid() {
		// Collapse to a zero-area box at the nearest corner so callers
		// always receive a Valid box.
		x := math.Min(math.Max(b.X1, bounds.X1), bounds.X2)
		y := math.Min(math.Max(b.Y1, bounds.Y1), bounds.Y2)
		return Box2D{X1: x, Y1: y, X2: x, Y2: y}
	}
	return c
}

// String implements fmt.Stringer.
func (b Box2D) String() string {
	return fmt.Sprintf("Box2D(%.1f,%.1f,%.1f,%.1f)", b.X1, b.Y1, b.X2, b.Y2)
}

// Vec3 is a point or direction in 3D world coordinates. The convention used
// throughout this repository is x: right, y: forward (away from the ego
// sensor), z: up.
type Vec3 struct {
	X, Y, Z float64
}

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Box3D is an upright (gravity-aligned) 3D bounding box: a centre, extents
// along the object's local axes, and a yaw rotation about the vertical (z)
// axis. This matches the box parameterisation used by LIDAR detectors such
// as Second/PointPillars in the paper's AV experiments.
type Box3D struct {
	Center Vec3
	// Length is the extent along the object's heading, Width across it,
	// Height vertically.
	Length, Width, Height float64
	// Yaw is the heading angle in radians, measured counter-clockwise from
	// the +x axis in the ground plane.
	Yaw float64
}

// Volume returns the box volume. Negative extents are treated as zero.
func (b Box3D) Volume() float64 {
	l, w, h := b.Length, b.Width, b.Height
	if l <= 0 || w <= 0 || h <= 0 {
		return 0
	}
	return l * w * h
}

// Corners returns the 8 corners of the box in world coordinates. Corners
// 0-3 are the bottom face (z = center.Z - h/2) in counter-clockwise order,
// corners 4-7 the top face in the same order.
func (b Box3D) Corners() [8]Vec3 {
	cos, sin := math.Cos(b.Yaw), math.Sin(b.Yaw)
	l2, w2, h2 := b.Length/2, b.Width/2, b.Height/2
	local := [4][2]float64{
		{+l2, +w2}, {+l2, -w2}, {-l2, -w2}, {-l2, +w2},
	}
	var out [8]Vec3
	for i, lw := range local {
		x := b.Center.X + lw[0]*cos - lw[1]*sin
		y := b.Center.Y + lw[0]*sin + lw[1]*cos
		out[i] = Vec3{X: x, Y: y, Z: b.Center.Z - h2}
		out[i+4] = Vec3{X: x, Y: y, Z: b.Center.Z + h2}
	}
	return out
}

// String implements fmt.Stringer.
func (b Box3D) String() string {
	return fmt.Sprintf("Box3D(c=(%.1f,%.1f,%.1f) lwh=(%.1f,%.1f,%.1f) yaw=%.2f)",
		b.Center.X, b.Center.Y, b.Center.Z, b.Length, b.Width, b.Height, b.Yaw)
}
