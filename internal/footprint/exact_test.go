package footprint

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"looppart/internal/intmat"
	"looppart/internal/tile"
)

// stringKeyCount is the reference counter the integer keys replace: one
// string key per element p·G + a, with int64 wraparound on the offset.
func stringKeyCount(t testing.TB, classes []Class, pts [][]int64) int64 {
	seen := make(map[string]struct{})
	for _, c := range classes {
		for _, p := range pts {
			base := mulVec(t, c.G, p)
			for _, r := range c.Refs {
				var b strings.Builder
				for k := range base {
					writeInt(&b, base[k]+r.A[k])
				}
				seen[b.String()] = struct{}{}
			}
		}
	}
	return int64(len(seen))
}

// randomOffset draws a small offset, or one near ±2⁶² or ±2⁶³ whose
// element box cannot be numbered in int64 (or whose sums wrap).
func randomOffset(rng *rand.Rand, far bool) int64 {
	v := rng.Int63n(7) - 3
	if !far {
		return v
	}
	switch rng.Intn(4) {
	case 0:
		return 1<<62 + v
	case 1:
		return -1<<62 + v
	case 2:
		return math.MaxInt64 - 3 + v
	default:
		return math.MinInt64 + 3 + v
	}
}

// TestCountElementsMatchesStringKeys: on random classes and point sets
// the int64-keyed count equals the string-keyed reference, both for one
// class (ExactClassFootprint) and across the classes of one array
// (ExactArrayFootprint); offsets near ±2⁶² and ±2⁶³ force the string
// fallback, and both paths are exercised.
func TestCountElementsMatchesStringKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var intPath, fallback int
	for trial := 0; trial < 600; trial++ {
		l, m := 1+rng.Intn(3), 1+rng.Intn(3)
		far := trial%3 == 0
		var classes []Class
		for nc := 1 + rng.Intn(2); nc > 0; nc-- {
			g := intmat.NewMat(l, m)
			for i := 0; i < l; i++ {
				for j := 0; j < m; j++ {
					g.Set(i, j, rng.Int63n(7)-3)
				}
			}
			refs := make([]Ref, 1+rng.Intn(4))
			for r := range refs {
				refs[r].A = make([]int64, m)
				for k := range refs[r].A {
					refs[r].A[k] = randomOffset(rng, far && rng.Intn(2) == 0)
				}
			}
			classes = append(classes, mustClass(t, "A", g, refs))
		}
		pts := make([][]int64, rng.Intn(40))
		for i := range pts {
			pts[i] = make([]int64, l)
			for k := range pts[i] {
				pts[i][k] = rng.Int63n(11) - 5
			}
		}

		if got, want := exactClass(t, classes[0], pts), stringKeyCount(t, classes[:1], pts); got != want {
			t.Fatalf("trial %d: ExactClassFootprint = %d, string keys %d (class %+v)", trial, got, want, classes[0])
		}
		a := &Analysis{Classes: classes}
		if got, want := exactArray(t, a, "A", pts), stringKeyCount(t, classes, pts); got != want {
			t.Fatalf("trial %d: ExactArrayFootprint = %d, string keys %d", trial, got, want)
		}

		rows := make([]classRows, len(classes))
		for i, c := range classes {
			rows[i] = classRows{m: m, points: len(pts), refs: c.Refs, rows: make([]int64, len(pts)*m)}
			for j, p := range pts {
				if err := c.G.MulVecInto(p, rows[i].row(j)); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(pts) > 0 {
			if _, _, ok := elementBox(rows); ok {
				intPath++
			} else {
				fallback++
			}
		}
	}
	if intPath == 0 || fallback == 0 {
		t.Errorf("paths exercised: int64 keys %d, string fallback %d; want both", intPath, fallback)
	}
}

// A class with no points, or a point set with no offsets, touches nothing;
// a rank-0 array (no subscripts) is one element.
func TestCountElementsEdgeCases(t *testing.T) {
	c := mustClass(t, "A", intmat.FromRows([][]int64{{1}}), []Ref{{A: []int64{0}}})
	if got := exactClass(t, c, nil); got != 0 {
		t.Errorf("no points: %d elements, want 0", got)
	}
	scalar := classRows{m: 0, points: 3, refs: []Ref{{A: []int64{}}, {A: []int64{}}}}
	if got := countElements([]classRows{scalar}); got != 1 {
		t.Errorf("rank-0 array: %d elements, want 1", got)
	}
}

// TestExactClassFootprintFuncDedupsImages streams rectangles of more than
// compactAt points through ExactClassFootprintFunc: the count matches the
// string-keyed reference whether the class projects, does not, or meets
// its repeated images only after several compactions; and a projecting
// class's buffer stays bounded by its distinct images, not its points.
func TestExactClassFootprintFuncDedupsImages(t *testing.T) {
	for _, tc := range []struct {
		name string
		ext  []int64
		g    [][]int64
		offs [][]int64
	}{
		{"projects", []int64{1024, 64}, [][]int64{{0}, {1}}, [][]int64{{0}, {1}}},
		{"square", []int64{128, 64}, [][]int64{{1, 0}, {0, 1}}, [][]int64{{0, 0}, {0, 1}}},
		{"late repeats", []int64{4, 64, 128}, [][]int64{{0, 0}, {1, 0}, {0, 1}}, [][]int64{{0, 0}, {1, 1}}},
	} {
		refs := make([]Ref, len(tc.offs))
		for i, a := range tc.offs {
			refs[i].A = a
		}
		c := mustClass(t, "A", intmat.FromRows(tc.g), refs)
		rect := tile.Rect(tc.ext...)
		stream := func(yield func(p []int64) bool) {
			if err := rect.ForEachPoint(yield); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := exactClassFunc(t, c, stream), stringKeyCount(t, []Class{c}, tile.OriginPoints(rect)); got != want {
			t.Errorf("%s: %d elements, string keys %d", tc.name, got, want)
		}
	}

	// 65,536 points onto 64 images: without deduplication the images and
	// keys alone would take 1.5 MB.
	c := mustClass(t, "A", intmat.FromRows([][]int64{{0}, {1}}), []Ref{{A: []int64{0}}, {A: []int64{1}}})
	rect := tile.Rect(1024, 64)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := exactClassFunc(t, c, func(yield func(p []int64) bool) { _ = rect.ForEachPoint(yield) })
	runtime.ReadMemStats(&after)
	if n != 65 {
		t.Fatalf("projecting class: %d elements, want 65", n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256<<10 {
		t.Errorf("projecting class allocated %d bytes over 65,536 points; want < 256 KiB", grew)
	}
}
