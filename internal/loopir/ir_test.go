package loopir

import (
	"testing"
	"testing/quick"
)

func TestAffineExprOps(t *testing.T) {
	e := NewAffine(2).AddTerm("i", 1).AddTerm("j", -3)
	f := NewAffine(-2).AddTerm("i", 1).AddTerm("k", 5)
	sum := e.Add(f)
	if sum.Const != 0 || sum.Coef["i"] != 2 || sum.Coef["j"] != -3 || sum.Coef["k"] != 5 {
		t.Fatalf("sum = %+v", sum)
	}
	neg := e.Neg()
	if neg.Const != -2 || neg.Coef["i"] != -1 || neg.Coef["j"] != 3 {
		t.Fatalf("neg = %+v", neg)
	}
	sc := e.ScaleBy(0)
	if !sc.IsConst() || sc.Const != 0 {
		t.Fatalf("scale0 = %+v", sc)
	}
	// Cancellation removes the entry.
	cz := NewAffine(0).AddTerm("i", 2).AddTerm("i", -2)
	if len(cz.Coef) != 0 {
		t.Fatalf("cancelled coef map = %+v", cz.Coef)
	}
}

func TestAffineExprImmutability(t *testing.T) {
	e := NewAffine(1).AddTerm("i", 1)
	_ = e.Add(NewAffine(0).AddTerm("i", 7))
	_ = e.Neg()
	_ = e.ScaleBy(9)
	if e.Const != 1 || e.Coef["i"] != 1 {
		t.Fatalf("receiver mutated: %+v", e)
	}
}

func TestAffineEval(t *testing.T) {
	e := NewAffine(4).AddTerm("i", 2).AddTerm("j", -1)
	if got := e.Eval(map[string]int64{"i": 3, "j": 5}); got != 5 {
		t.Fatalf("eval = %d", got)
	}
}

func TestAffineEvalUnboundPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unbound eval did not panic")
		}
	}()
	NewAffine(0).AddTerm("i", 1).Eval(nil)
}

func TestAffineString(t *testing.T) {
	cases := []struct {
		e    AffineExpr
		want string
	}{
		{NewAffine(0), "0"},
		{NewAffine(-3), "-3"},
		{NewAffine(0).AddTerm("i", 1), "i"},
		{NewAffine(0).AddTerm("i", -1), "-i"},
		{NewAffine(2).AddTerm("i", 1), "i+2"},
		{NewAffine(-1).AddTerm("i", 1).AddTerm("j", 2), "i+2*j-1"},
		{NewAffine(0).AddTerm("j", -2).AddTerm("i", 1), "i-2*j"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.e, got, c.want)
		}
	}
}

func TestRefAffineUnknownVar(t *testing.T) {
	r := Ref{Array: "A", Subs: []AffineExpr{NewAffine(0).AddTerm("z", 1)}}
	if _, _, err := r.Affine([]string{"i", "j"}); err == nil {
		t.Fatal("expected error for unknown variable")
	}
}

func TestAccessesOrderingAndAtomic(t *testing.T) {
	n := MustParse(`
doall (i, 1, 4)
  doall (k, 1, 4)
    l$C[i] = C[i] + A[i,k]
  enddoall
enddoall`, nil)
	acc := n.Accesses()
	// RHS reads C, A; then atomic read of C; then write of C.
	if len(acc) != 4 {
		t.Fatalf("accesses = %d", len(acc))
	}
	if acc[0].Ref.Array != "C" || acc[0].Write {
		t.Fatalf("acc[0] = %+v", acc[0])
	}
	if acc[1].Ref.Array != "A" || acc[1].Write {
		t.Fatalf("acc[1] = %+v", acc[1])
	}
	if acc[2].Ref.Array != "C" || acc[2].Write || !acc[2].Atomic {
		t.Fatalf("acc[2] = %+v", acc[2])
	}
	if acc[3].Ref.Array != "C" || !acc[3].Write || !acc[3].Atomic {
		t.Fatalf("acc[3] = %+v", acc[3])
	}
}

func TestArrays(t *testing.T) {
	n := MustParse(`
doall (i, 1, 4)
  A[i] = B[i] + C[i] + B[i+1]
enddoall`, nil)
	got := n.Arrays()
	want := []string{"A", "B", "C"}
	if len(got) != len(want) {
		t.Fatalf("arrays = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrays = %v", got)
		}
	}
}

func TestTraceIteration(t *testing.T) {
	n := MustParse(`
doall (i, 1, 4)
  doall (j, 1, 4)
    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
  enddoall
enddoall`, nil)
	tr := n.TraceIteration(map[string]int64{"i": 2, "j": 3})
	if len(tr) != 3 {
		t.Fatalf("trace = %v", tr)
	}
	if tr[0].Array != "B" || tr[0].Index[0] != 5 || tr[0].Index[1] != -2 {
		t.Fatalf("tr[0] = %+v", tr[0])
	}
	if tr[1].Index[0] != 9 || tr[1].Index[1] != 2 {
		t.Fatalf("tr[1] = %+v", tr[1])
	}
	if !tr[2].Write || tr[2].Array != "A" || tr[2].Index[0] != 2 || tr[2].Index[1] != 3 {
		t.Fatalf("tr[2] = %+v", tr[2])
	}
}

func TestForEachIteration(t *testing.T) {
	n := MustParse(`
doall (i, 1, 3)
  doall (j, 5, 6)
    A[i,j] = 0
  enddoall
enddoall`, nil)
	var pts [][2]int64
	n.ForEachIteration(func(env map[string]int64) bool {
		pts = append(pts, [2]int64{env["i"], env["j"]})
		return true
	})
	if int64(len(pts)) != n.IterationCount() || len(pts) != 6 {
		t.Fatalf("iterated %d points", len(pts))
	}
	if pts[0] != [2]int64{1, 5} || pts[1] != [2]int64{1, 6} || pts[5] != [2]int64{3, 6} {
		t.Fatalf("pts = %v", pts)
	}
}

func TestForEachIterationEarlyStop(t *testing.T) {
	n := MustParse(`doall (i, 1, 100) A[i] = 0 enddoall`, nil)
	count := 0
	n.ForEachIteration(func(env map[string]int64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestLoopExtent(t *testing.T) {
	if (Loop{Lo: 101, Hi: 200}).Extent() != 100 {
		t.Fatal("extent wrong")
	}
	if (Loop{Lo: 5, Hi: 5}).Extent() != 1 {
		t.Fatal("singleton extent wrong")
	}
}

func TestPropAffineAddCommutes(t *testing.T) {
	f := func(a, b, ci, cj, di, dj int8) bool {
		e := NewAffine(int64(a)).AddTerm("i", int64(ci)).AddTerm("j", int64(cj))
		g := NewAffine(int64(b)).AddTerm("i", int64(di)).AddTerm("j", int64(dj))
		env := map[string]int64{"i": 3, "j": -2}
		return e.Add(g).Eval(env) == g.Add(e).Eval(env)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropAffineEvalLinear(t *testing.T) {
	f := func(c, ci int8, x, y int16) bool {
		e := NewAffine(int64(c)).AddTerm("i", int64(ci))
		ex := e.Eval(map[string]int64{"i": int64(x)})
		ey := e.Eval(map[string]int64{"i": int64(y)})
		// e(x) − e(y) == ci·(x−y)
		return ex-ey == int64(ci)*(int64(x)-int64(y))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkParseExample10(b *testing.B) {
	src := `
doall (i, 1, 100)
  doall (j, 1, 100)
    A[i,j] = B[i+j,i-j] + B[i+j+4,i-j+2]
            + C[i,2*i,i+2*j-1] + C[i+1,2*i+2,i+2*j+1] + C[i,2*i,i+2*j+1]
  enddoall
enddoall`
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceIteration(b *testing.B) {
	n := MustParse(`
doall (i, 1, 4)
  doall (j, 1, 4)
    A[i,j] = B[i+j, i-j-1] + B[i+j+4, i-j+3]
  enddoall
enddoall`, nil)
	env := map[string]int64{"i": 2, "j": 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = n.TraceIteration(env)
	}
}
