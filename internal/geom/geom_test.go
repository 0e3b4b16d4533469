package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := Rect{MinX: 0, MinY: 0, MaxX: 10, MaxY: 5}
	if r.IsEmpty() {
		t.Fatal("non-empty rect reported empty")
	}
	if got := r.Area(); got != 50 {
		t.Fatalf("Area = %v, want 50", got)
	}
	if got := r.Margin(); got != 15 {
		t.Fatalf("Margin = %v, want 15", got)
	}
	if !r.Contains(Point{5, 2}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 5}) {
		t.Fatal("Contains failed for interior/boundary points")
	}
	if r.Contains(Point{10.1, 2}) {
		t.Fatal("Contains accepted an outside point")
	}
}

func TestEmptyRect(t *testing.T) {
	e := EmptyRect()
	if !e.IsEmpty() {
		t.Fatal("EmptyRect not empty")
	}
	if e.Area() != 0 {
		t.Fatal("empty rect area nonzero")
	}
	r := Rect{MinX: 1, MinY: 1, MaxX: 2, MaxY: 2}
	if got := e.Union(r); got != r {
		t.Fatalf("empty union: got %v, want %v", got, r)
	}
	if got := r.Union(e); got != r {
		t.Fatalf("union empty: got %v, want %v", got, r)
	}
	if e.Intersects(r) || r.Intersects(e) {
		t.Fatal("empty rect intersects something")
	}
	if !r.ContainsRect(e) {
		t.Fatal("every rect should contain the empty rect")
	}
}

func TestRectIntersection(t *testing.T) {
	a := Rect{0, 0, 4, 4}
	b := Rect{2, 2, 6, 6}
	got := a.Intersection(b)
	want := Rect{2, 2, 4, 4}
	if got != want {
		t.Fatalf("Intersection = %v, want %v", got, want)
	}
	if a.OverlapArea(b) != 4 {
		t.Fatalf("OverlapArea = %v, want 4", a.OverlapArea(b))
	}
	c := Rect{5, 5, 7, 7}
	if !a.Intersection(c).IsEmpty() {
		t.Fatal("disjoint rects yielded non-empty intersection")
	}
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 1, 1}
	b := Rect{2, -1, 3, 0.5}
	u := a.Union(b)
	want := Rect{0, -1, 3, 1}
	if u != want {
		t.Fatalf("Union = %v, want %v", u, want)
	}
}

func TestSegmentIntersectsRect(t *testing.T) {
	r := Rect{0, 0, 10, 10}
	cases := []struct {
		s    Segment
		want bool
		name string
	}{
		{Segment{Point{-5, 5}, Point{15, 5}}, true, "crosses horizontally"},
		{Segment{Point{2, 2}, Point{8, 8}}, true, "fully inside"},
		{Segment{Point{-5, -5}, Point{-1, -1}}, false, "outside, pointing away"},
		{Segment{Point{-1, -1}, Point{11, 11}}, true, "diagonal through"},
		{Segment{Point{-5, 11}, Point{15, 11}}, false, "parallel above"},
		{Segment{Point{0, -5}, Point{0, 15}}, true, "along left edge"},
		{Segment{Point{5, 5}, Point{5, 5}}, true, "degenerate point inside"},
		{Segment{Point{11, 5}, Point{11, 5}}, false, "degenerate point outside"},
		{Segment{Point{-5, 0}, Point{5, -10}}, false, "clips corner region but misses"},
		{Segment{Point{-5, 5}, Point{5, -5}}, true, "cuts the corner"},
	}
	for _, c := range cases {
		if got := c.s.IntersectsRect(r); got != c.want {
			t.Errorf("%s: IntersectsRect = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: segment/rect intersection agrees with dense sampling along the
// segment (sampling can only prove intersection, so check one direction,
// and the other direction via midpoint containment of clipped cases).
func TestSegmentIntersectsRectProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := Rect{-1, -1, 1, 1}
	for i := 0; i < 2000; i++ {
		s := Segment{
			A: Point{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
			B: Point{rng.Float64()*6 - 3, rng.Float64()*6 - 3},
		}
		sampled := false
		for k := 0; k <= 200; k++ {
			f := float64(k) / 200
			p := Point{s.A.X + f*(s.B.X-s.A.X), s.A.Y + f*(s.B.Y-s.A.Y)}
			if r.Contains(p) {
				sampled = true
				break
			}
		}
		got := s.IntersectsRect(r)
		if sampled && !got {
			t.Fatalf("sampling found a hit but IntersectsRect=false: %+v", s)
		}
	}
}

func TestConstraintHolds(t *testing.T) {
	// x + y <= 1
	c := Constraint{A: 1, B: 1, C: 1}
	if !c.Holds(Point{0, 0}) || !c.Holds(Point{0.5, 0.5}) {
		t.Fatal("Holds rejected satisfying points")
	}
	if c.Holds(Point{1, 1}) {
		t.Fatal("Holds accepted violating point")
	}
}

func TestConvexRegionClassifyRect(t *testing.T) {
	// Unit square region: x>=0, x<=1, y>=0, y<=1.
	reg := NewRegion(
		Constraint{-1, 0, 0}, Constraint{1, 0, 1},
		Constraint{0, -1, 0}, Constraint{0, 1, 1},
	)
	if got := reg.ClassifyRect(Rect{0.2, 0.2, 0.8, 0.8}); got != Inside {
		t.Fatalf("inner rect: got %v, want Inside", got)
	}
	if got := reg.ClassifyRect(Rect{2, 2, 3, 3}); got != Outside {
		t.Fatalf("far rect: got %v, want Outside", got)
	}
	if got := reg.ClassifyRect(Rect{0.5, 0.5, 2, 2}); got != Partial {
		t.Fatalf("straddling rect: got %v, want Partial", got)
	}
}

func TestConvexRegionDiagonal(t *testing.T) {
	// Half-plane y <= x. A rect strictly above the diagonal must be
	// Outside even though its bounding box straddles in both axes.
	reg := NewRegion(Constraint{A: -1, B: 1, C: 0})
	if got := reg.ClassifyRect(Rect{0, 5, 1, 6}); got != Outside {
		t.Fatalf("above-diagonal rect: got %v, want Outside", got)
	}
	if got := reg.ClassifyRect(Rect{5, 0, 6, 1}); got != Inside {
		t.Fatalf("below-diagonal rect: got %v, want Inside", got)
	}
	if got := reg.ClassifyRect(Rect{-1, -1, 1, 1}); got != Partial {
		t.Fatalf("crossing rect: got %v, want Partial", got)
	}
}

// Property: ClassifyRect agrees with dense grid sampling of the rect.
func TestClassifyRectAgainstSampling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		// Random region of 3 half-planes and a random rect.
		cs := make([]Constraint, 3)
		for i := range cs {
			cs[i] = Constraint{
				A: rng.Float64()*4 - 2,
				B: rng.Float64()*4 - 2,
				C: rng.Float64()*4 - 2,
			}
		}
		reg := NewRegion(cs...)
		x := rng.Float64()*4 - 2
		y := rng.Float64()*4 - 2
		rect := Rect{x, y, x + rng.Float64()*2, y + rng.Float64()*2}

		anyIn, allIn := false, true
		const G = 12
		for i := 0; i <= G; i++ {
			for j := 0; j <= G; j++ {
				p := Point{
					rect.MinX + float64(i)/G*(rect.MaxX-rect.MinX),
					rect.MinY + float64(j)/G*(rect.MaxY-rect.MinY),
				}
				if reg.ContainsPoint(p) {
					anyIn = true
				} else {
					allIn = false
				}
			}
		}
		got := reg.ClassifyRect(rect)
		// Sampling is approximate; only flag definite contradictions.
		if allIn && got == Outside {
			t.Fatalf("all samples inside but classified Outside: %+v %+v", cs, rect)
		}
		if !anyIn && got == Inside {
			t.Fatalf("no samples inside but classified Inside: %+v %+v", cs, rect)
		}
		if anyIn && got == Outside {
			t.Fatalf("samples inside but classified Outside: %+v %+v", cs, rect)
		}
	}
}

func TestClipRect(t *testing.T) {
	reg := NewRegion(Constraint{A: 1, B: 1, C: 0.5}) // x + y <= 0.5
	poly := reg.ClipRect(Rect{0, 0, 1, 1})
	if len(poly) != 3 {
		t.Fatalf("clipping unit square by x+y<=0.5: got %d vertices, want 3", len(poly))
	}
	if reg.ClipRect(Rect{2, 2, 3, 3}) != nil {
		t.Fatal("clip of fully-outside rect should be nil")
	}
}

// Property: Union is commutative, associative (approximately) and
// monotone: the union contains both inputs.
func TestUnionProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{ax, ay, ax + math.Abs(aw), ay + math.Abs(ah)}
		b := Rect{bx, by, bx + math.Abs(bw), by + math.Abs(bh)}
		u := a.Union(b)
		return u == b.Union(a) && u.ContainsRect(a) && u.ContainsRect(b)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: Intersects is symmetric and consistent with Intersection.
func TestIntersectsProperties(t *testing.T) {
	f := func(ax, ay, aw, ah, bx, by, bw, bh float64) bool {
		a := Rect{ax, ay, ax + math.Abs(aw), ay + math.Abs(ah)}
		b := Rect{bx, by, bx + math.Abs(bw), by + math.Abs(bh)}
		i1 := a.Intersects(b)
		i2 := b.Intersects(a)
		nonEmpty := !a.Intersection(b).IsEmpty()
		if i1 != i2 {
			return false
		}
		// Intersection nonempty implies Intersects (eps tolerance may make
		// touching rects Intersect while Intersection is degenerate).
		return !nonEmpty || i1
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
