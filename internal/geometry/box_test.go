package geometry

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewBox2DNormalizesCorners(t *testing.T) {
	b := NewBox2D(10, 20, 0, 5)
	if b.X1 != 0 || b.Y1 != 5 || b.X2 != 10 || b.Y2 != 20 {
		t.Fatalf("corners not normalized: %v", b)
	}
	if !b.Valid() {
		t.Fatal("normalized box should be valid")
	}
}

func TestBoxFromCenter(t *testing.T) {
	b := BoxFromCenter(5, 5, 4, 2)
	if b.X1 != 3 || b.X2 != 7 || b.Y1 != 4 || b.Y2 != 6 {
		t.Fatalf("unexpected box: %v", b)
	}
	cx, cy := b.Center()
	if cx != 5 || cy != 5 {
		t.Fatalf("center = (%v,%v)", cx, cy)
	}
}

func TestBoxFromCenterNegativeSize(t *testing.T) {
	b := BoxFromCenter(0, 0, -4, -2)
	if b.Area() != 0 {
		t.Fatalf("negative-size box should have zero area, got %v", b.Area())
	}
	if !b.Valid() {
		t.Fatal("negative-size box should still be valid (degenerate)")
	}
}

func TestAreaDegenerate(t *testing.T) {
	if a := (Box2D{X1: 0, Y1: 0, X2: 0, Y2: 10}).Area(); a != 0 {
		t.Fatalf("line box area = %v", a)
	}
	if a := (Box2D{X1: 5, Y1: 5, X2: 3, Y2: 3}).Area(); a != 0 {
		t.Fatalf("inverted box area = %v", a)
	}
}

func TestIoUIdentical(t *testing.T) {
	b := NewBox2D(0, 0, 10, 10)
	if iou := b.IoU(b); !approxEq(iou, 1, 1e-12) {
		t.Fatalf("IoU(self) = %v", iou)
	}
}

func TestIoUDisjoint(t *testing.T) {
	a := NewBox2D(0, 0, 1, 1)
	b := NewBox2D(5, 5, 6, 6)
	if iou := a.IoU(b); iou != 0 {
		t.Fatalf("disjoint IoU = %v", iou)
	}
}

func TestIoUTouchingEdges(t *testing.T) {
	a := NewBox2D(0, 0, 1, 1)
	b := NewBox2D(1, 0, 2, 1)
	if iou := a.IoU(b); iou != 0 {
		t.Fatalf("edge-touching IoU = %v, want 0", iou)
	}
}

func TestIoUHalfOverlap(t *testing.T) {
	a := NewBox2D(0, 0, 2, 1)
	b := NewBox2D(1, 0, 3, 1)
	// intersection 1, union 3
	if iou := a.IoU(b); !approxEq(iou, 1.0/3.0, 1e-12) {
		t.Fatalf("IoU = %v, want 1/3", iou)
	}
}

func TestIoUContained(t *testing.T) {
	outer := NewBox2D(0, 0, 10, 10)
	inner := NewBox2D(2, 2, 4, 4)
	want := inner.Area() / outer.Area()
	if iou := outer.IoU(inner); !approxEq(iou, want, 1e-12) {
		t.Fatalf("IoU = %v, want %v", iou, want)
	}
}

func TestIoUDegenerateBoxes(t *testing.T) {
	a := Box2D{}
	b := Box2D{}
	if iou := a.IoU(b); iou != 0 {
		t.Fatalf("degenerate IoU = %v", iou)
	}
}

func TestContains(t *testing.T) {
	b := NewBox2D(0, 0, 10, 10)
	cases := []struct {
		x, y float64
		want bool
	}{
		{5, 5, true}, {0, 0, true}, {10, 10, true},
		{-0.1, 5, false}, {5, 10.1, false},
	}
	for _, c := range cases {
		if got := b.Contains(c.x, c.y); got != c.want {
			t.Errorf("Contains(%v,%v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestContainsBox(t *testing.T) {
	outer := NewBox2D(0, 0, 10, 10)
	if !outer.ContainsBox(NewBox2D(1, 1, 9, 9)) {
		t.Fatal("inner box should be contained")
	}
	if outer.ContainsBox(NewBox2D(5, 5, 11, 9)) {
		t.Fatal("overhanging box should not be contained")
	}
	if !outer.ContainsBox(outer) {
		t.Fatal("box should contain itself")
	}
}

func TestUnionContainsBoth(t *testing.T) {
	a := NewBox2D(0, 0, 2, 2)
	b := NewBox2D(5, -1, 7, 1)
	u := a.Union(b)
	if !u.ContainsBox(a) || !u.ContainsBox(b) {
		t.Fatalf("union %v does not contain inputs", u)
	}
}

func TestClipInside(t *testing.T) {
	bounds := NewBox2D(0, 0, 100, 100)
	b := NewBox2D(10, 10, 20, 20)
	if got := b.Clip(bounds); got != b {
		t.Fatalf("clip changed interior box: %v", got)
	}
}

func TestClipPartial(t *testing.T) {
	bounds := NewBox2D(0, 0, 100, 100)
	b := NewBox2D(-10, 50, 10, 120)
	got := b.Clip(bounds)
	want := Box2D{X1: 0, Y1: 50, X2: 10, Y2: 100}
	if got != want {
		t.Fatalf("clip = %v, want %v", got, want)
	}
}

func TestClipEntirelyOutside(t *testing.T) {
	bounds := NewBox2D(0, 0, 100, 100)
	b := NewBox2D(200, 200, 300, 300)
	got := b.Clip(bounds)
	if !got.Valid() || got.Area() != 0 {
		t.Fatalf("fully-outside clip should be a valid zero-area box, got %v", got)
	}
}

func TestTranslateAndScale(t *testing.T) {
	b := NewBox2D(0, 0, 2, 4)
	moved := b.Translate(1, -1)
	if moved.X1 != 1 || moved.Y1 != -1 || moved.X2 != 3 || moved.Y2 != 3 {
		t.Fatalf("translate: %v", moved)
	}
	scaled := b.Scale(2)
	if !approxEq(scaled.Area(), b.Area()*4, 1e-9) {
		t.Fatalf("scale area: %v", scaled.Area())
	}
	cx1, cy1 := b.Center()
	cx2, cy2 := scaled.Center()
	if !approxEq(cx1, cx2, 1e-9) || !approxEq(cy1, cy2, 1e-9) {
		t.Fatal("scale moved the center")
	}
}

// Property tests over random boxes.

func randomBox(vals [4]float64) Box2D {
	clamp := func(v float64) float64 {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return math.Mod(v, 1000)
	}
	return NewBox2D(clamp(vals[0]), clamp(vals[1]), clamp(vals[2]), clamp(vals[3]))
}

func TestQuickIoUSymmetric(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ba, bb := randomBox(a), randomBox(b)
		return approxEq(ba.IoU(bb), bb.IoU(ba), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIoUBounded(t *testing.T) {
	f := func(a, b [4]float64) bool {
		iou := randomBox(a).IoU(randomBox(b))
		return iou >= 0 && iou <= 1+1e-12 && !math.IsNaN(iou)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSelfIoUIsOneForPositiveArea(t *testing.T) {
	f := func(a [4]float64) bool {
		b := randomBox(a)
		if b.Area() == 0 {
			return b.IoU(b) == 0
		}
		return approxEq(b.IoU(b), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickIntersectionNoLargerThanEither(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ba, bb := randomBox(a), randomBox(b)
		inter := ba.IntersectionArea(bb)
		return inter <= ba.Area()+1e-9 && inter <= bb.Area()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickUnionContains(t *testing.T) {
	f := func(a, b [4]float64) bool {
		ba, bb := randomBox(a), randomBox(b)
		u := ba.Union(bb)
		return u.ContainsBox(ba) && u.ContainsBox(bb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVec3Arithmetic(t *testing.T) {
	a := Vec3{1, 2, 3}
	b := Vec3{4, 5, 6}
	if got := b.Sub(a); got != (Vec3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
}

func TestBox3DVolume(t *testing.T) {
	b := Box3D{Length: 4, Width: 2, Height: 1.5}
	if v := b.Volume(); !approxEq(v, 12, 1e-12) {
		t.Fatalf("Volume = %v", v)
	}
	if v := (Box3D{Length: -1, Width: 2, Height: 2}).Volume(); v != 0 {
		t.Fatalf("negative extent volume = %v", v)
	}
}

func TestBox3DCornersAxisAligned(t *testing.T) {
	b := Box3D{Center: Vec3{0, 0, 1}, Length: 4, Width: 2, Height: 2, Yaw: 0}
	corners := b.Corners()
	// Bottom corners at z = 0, top at z = 2.
	for i := 0; i < 4; i++ {
		if !approxEq(corners[i].Z, 0, 1e-12) {
			t.Fatalf("bottom corner %d z = %v", i, corners[i].Z)
		}
		if !approxEq(corners[i+4].Z, 2, 1e-12) {
			t.Fatalf("top corner %d z = %v", i, corners[i+4].Z)
		}
	}
	// The bottom face spans the length along x and the width along y.
	want := [4]Vec3{{2, 1, 0}, {2, -1, 0}, {-2, -1, 0}, {-2, 1, 0}}
	for i, w := range want {
		if !approxEq(corners[i].X, w.X, 1e-9) || !approxEq(corners[i].Y, w.Y, 1e-9) {
			t.Fatalf("bottom corner %d = %v, want %v", i, corners[i], w)
		}
	}
}

func TestBox3DCornersRotated90(t *testing.T) {
	b := Box3D{Center: Vec3{0, 0, 0}, Length: 4, Width: 2, Height: 2, Yaw: math.Pi / 2}
	// After 90° rotation, length lies along y.
	want := [4]Vec3{{-1, 2, -1}, {1, 2, -1}, {1, -2, -1}, {-1, -2, -1}}
	for i, w := range want {
		c := b.Corners()[i]
		if !approxEq(c.X, w.X, 1e-9) || !approxEq(c.Y, w.Y, 1e-9) || !approxEq(c.Z, w.Z, 1e-9) {
			t.Fatalf("rotated corner %d = %v, want %v", i, c, w)
		}
	}
}
