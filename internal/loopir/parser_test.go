package loopir

import (
	"errors"
	"strings"
	"testing"

	"looppart/internal/intmat"
)

func TestParseExample2(t *testing.T) {
	src := `
doall (i, 101, 200)
  doall (j, 1, 100)
    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
  enddoall
enddoall
`
	n, err := Parse(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Loops) != 2 {
		t.Fatalf("loops = %d", len(n.Loops))
	}
	if n.Loops[0].Var != "i" || n.Loops[0].Lo != 101 || n.Loops[0].Hi != 200 {
		t.Fatalf("loop 0 = %+v", n.Loops[0])
	}
	if n.Loops[1].Kind != Doall {
		t.Fatal("loop 1 should be doall")
	}
	if len(n.Body) != 1 {
		t.Fatalf("body = %d stmts", len(n.Body))
	}
	s := n.Body[0]
	if s.LHS.Array != "A" || s.Atomic {
		t.Fatalf("LHS = %+v", s.LHS)
	}
	refs := refsOf(s.RHS)
	if len(refs) != 2 || refs[0].Array != "B" || refs[1].Array != "B" {
		t.Fatalf("RHS refs = %v", refs)
	}
	// Check affine extraction of B[i+j, i-j-1].
	g, a, err := refs[0].Affine([]string{"i", "j"})
	if err != nil {
		t.Fatal(err)
	}
	if g.At(0, 0) != 1 || g.At(0, 1) != 1 || g.At(1, 0) != 1 || g.At(1, 1) != -1 {
		t.Fatalf("G = %v", g)
	}
	if a[0] != 0 || a[1] != -1 {
		t.Fatalf("a = %v", a)
	}
}

func TestParseParams(t *testing.T) {
	n, err := Parse(`
doall (i, 1, N)
  A[i] = A[i] + 1
enddoall`, map[string]int64{"N": 64})
	if err != nil {
		t.Fatal(err)
	}
	if n.Loops[0].Hi != 64 {
		t.Fatalf("Hi = %d", n.Loops[0].Hi)
	}
}

func TestParseUnknownParam(t *testing.T) {
	_, err := Parse(`doall (i, 1, N) A[i] = 0 enddoall`, nil)
	if err == nil || !strings.Contains(err.Error(), "unknown loop-bound parameter") {
		t.Fatalf("err = %v", err)
	}
}

func TestParseDoseq(t *testing.T) {
	src := `
doseq (t, 1, 10)
  doall (i, 1, 8)
    A[i] = B[i] + B[i+1]
  enddoall
enddoseq
`
	n, err := Parse(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Loops[0].Kind != Doseq || n.Loops[1].Kind != Doall {
		t.Fatalf("loops = %+v", n.Loops)
	}
	if len(n.SeqLoops()) != 1 || len(n.DoallLoops()) != 1 {
		t.Fatal("loop classification wrong")
	}
}

func TestParseDoseqInsideDoallRejected(t *testing.T) {
	src := `
doall (i, 1, 8)
  doseq (t, 1, 10)
    A[i] = B[i]
  enddoseq
enddoall
`
	if _, err := Parse(src, nil); err == nil {
		t.Fatal("doseq inside doall should be rejected")
	}
}

func TestParseAtomicMarker(t *testing.T) {
	for _, marker := range []string{"l$", "1$"} {
		src := `
doall (i, 1, 4)
  doall (k, 1, 4)
    ` + marker + `C[i] = C[i] + A[i,k]
  enddoall
enddoall
`
		n, err := Parse(src, nil)
		if err != nil {
			t.Fatalf("marker %q: %v", marker, err)
		}
		if !n.Body[0].Atomic {
			t.Fatalf("marker %q: statement not atomic", marker)
		}
	}
}

func TestParseScaledSubscripts(t *testing.T) {
	src := `
doall (i, 1, 4)
  doall (j, 1, 4)
    A[2*i, j*3, i+2*j-1] = B[i, j]
  enddoall
enddoall
`
	n, err := Parse(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	g, a, err := n.Body[0].LHS.Affine([]string{"i", "j"})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{2, 0, 1}, {0, 3, 2}}
	for r := range want {
		for c := range want[r] {
			if g.At(r, c) != want[r][c] {
				t.Fatalf("G = %v", g)
			}
		}
	}
	if a[0] != 0 || a[1] != 0 || a[2] != -1 {
		t.Fatalf("a = %v", a)
	}
}

func TestParseNonAffineSubscriptRejected(t *testing.T) {
	bad := []string{
		`doall (i, 1, 4) A[i*i] = 0 enddoall`,
		`doall (i, 1, 4) A[i*j*2] = 0 enddoall`,
	}
	for _, src := range bad {
		if _, err := Parse(src, nil); err == nil {
			t.Errorf("accepted non-affine subscript: %s", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"missing end", `doall (i, 1, 4) A[i] = 0`},
		{"wrong end", `doseq (t, 1, 4) doall (i, 1, 4) A[i] = 0 enddoseq enddoall`},
		{"empty body", `doall (i, 1, 4) enddoall`},
		{"no loop", `A[1] = 0`},
		{"dup var", `doall (i, 1, 4) doall (i, 1, 4) A[i] = 0 enddoall enddoall`},
		{"unknown subscript var", `doall (i, 1, 4) A[q] = 0 enddoall`},
		{"empty range", `doall (i, 4, 1) A[i] = 0 enddoall`},
		{"bad char", `doall (i, 1, 4) A[i] = 0 ! enddoall`},
		{"trailing", `doall (i, 1, 4) A[i] = 0 enddoall enddoall`},
		{"missing paren", `doall i, 1, 4) A[i] = 0 enddoall`},
		{"bad bound", `doall (i, 1, [) A[i] = 0 enddoall`},
	}
	for _, c := range cases {
		if _, err := Parse(c.src, nil); err == nil {
			t.Errorf("%s: parse succeeded", c.name)
		}
	}
}

func TestParseComments(t *testing.T) {
	src := `
# Example with both comment styles.
doall (i, 1, 4) // trailing comment
  A[i] = B[i] # another
enddoall
`
	if _, err := Parse(src, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseNegativeBound(t *testing.T) {
	n, err := Parse(`doall (i, -3, 3) A[i] = 0 enddoall`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n.Loops[0].Lo != -3 {
		t.Fatalf("Lo = %d", n.Loops[0].Lo)
	}
	if n.Loops[0].Extent() != 7 {
		t.Fatalf("Extent = %d", n.Loops[0].Extent())
	}
}

func TestParseRHSPrecedence(t *testing.T) {
	n, err := Parse(`
doall (i, 1, 4)
  A[i] = B[i] + C[i] * D[i]
enddoall`, nil)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := n.Body[0].RHS.(BinExpr)
	if !ok || top.Op != '+' {
		t.Fatalf("top = %#v", n.Body[0].RHS)
	}
	if inner, ok := top.Right.(BinExpr); !ok || inner.Op != '*' {
		t.Fatalf("right = %#v", top.Right)
	}
}

func TestParseParenthesizedRHS(t *testing.T) {
	n, err := Parse(`
doall (i, 1, 4)
  A[i] = (B[i] + C[i]) * 2
enddoall`, nil)
	if err != nil {
		t.Fatal(err)
	}
	top, ok := n.Body[0].RHS.(BinExpr)
	if !ok || top.Op != '*' {
		t.Fatalf("top = %#v", n.Body[0].RHS)
	}
}

func TestParseUnaryMinusRHS(t *testing.T) {
	if _, err := Parse(`doall (i, 1, 4) A[i] = -B[i] enddoall`, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMustParsePanicsOnError(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse(`garbage`, nil)
}

func TestStringRoundTrip(t *testing.T) {
	src := `
doseq (t, 1, 3)
  doall (i, 1, 4)
    l$A[i,2*i] = A[i,2*i] + B[i+1,i-1]
  enddoall
enddoseq
`
	n := MustParse(src, nil)
	n2, err := Parse(n.String(), nil)
	if err != nil {
		t.Fatalf("re-parse of %q failed: %v", n.String(), err)
	}
	if n2.String() != n.String() {
		t.Fatalf("round trip changed:\n%s\nvs\n%s", n.String(), n2.String())
	}
}

// TestParseRejectsSpaceBeyondInt64: a doall space whose extent or point
// count does not fit in int64 is rejected up front, not wrapped into a
// small (or negative) size the searches would plan from.
func TestParseRejectsSpaceBeyondInt64(t *testing.T) {
	for _, src := range []string{
		// 6442450944² ≈ 4.15e19 points; wrapping gave 2^62.
		"doall (i, 1, 6442450944)\n doall (j, 1, 6442450944)\n A[i, j] = 1\n enddoall\nenddoall",
		// One extent of 2^64 − 1.
		"doall (i, -9223372036854775807, 9223372036854775807)\n A[i] = 1\nenddoall",
	} {
		if n, err := Parse(src, nil); !errors.Is(err, intmat.ErrOverflow) {
			t.Errorf("Parse accepted an unrepresentable space (%v, %v):\n%s", n, err, src)
		}
	}
	// The largest representable extent still parses, as does a doseq loop
	// of any length and a symbolic doall bound.
	for _, src := range []string{
		"doall (i, 0, 9223372036854775806)\n A[i] = 1\nenddoall",
		"doseq (t, 1, 9223372036854775807)\n doall (i, 1, 8)\n A[i] = 1\n enddoall\nenddoseq",
		"doall (i, 1, ?N)\n doall (j, 1, 9223372036854775807)\n A[i, j] = 1\n enddoall\nenddoall",
	} {
		if _, err := Parse(src, nil); err != nil {
			t.Errorf("Parse rejected a representable space: %v\n%s", err, src)
		}
	}
}
