package verify

import (
	"errors"
	"math/rand"
	"testing"

	"looppart/internal/footprint"
	"looppart/internal/intmat"
	"looppart/internal/loopir"
)

// Go-native fuzz targets over the differential harness. `go test` runs
// them as seed-corpus regression tests; scripts/verify.sh runs each as a
// short fuzzing smoke (-fuzz -fuzztime=10s).

// fuzzDiffable bounds the nests the fuzzer may push through the
// model-vs-enumeration diff: the harness enumerates the full iteration
// space, so extents must stay small, and coefficient magnitudes must stay
// far from the int64 overflow cliffs the analysis treats as errors.
func fuzzDiffable(n *loopir.Nest) bool {
	if len(n.Loops) > 4 {
		return false
	}
	space := int64(1)
	for _, l := range n.Loops {
		if l.Lo < -64 || l.Hi > 64 {
			return false
		}
		space *= l.Extent()
		if space > 1<<14 {
			return false
		}
	}
	for _, acc := range n.Accesses() {
		if len(acc.Ref.Subs) > 3 {
			return false
		}
		for _, sub := range acc.Ref.Subs {
			if sub.Const < -64 || sub.Const > 64 {
				return false
			}
			for _, c := range sub.Coef {
				if c < -8 || c > 8 {
					return false
				}
			}
		}
	}
	return true
}

// FuzzRectFootprint mutates loopir source text and asserts the footprint
// models against exact enumeration on every nest that parses and stays
// within the enumeration bounds.
func FuzzRectFootprint(f *testing.F) {
	f.Add("doall (i, 0, 7) A[i] = A[i - 1] enddoall")
	f.Add("doall (i, 0, 7) doall (j, 0, 7) A[i, j] = A[i, j - 1] + A[i - 1, j] enddoall enddoall")
	f.Add("doall (i, 1, 6) doall (j, 1, 6) B[2*i - j] = B[2*i - j + 3] + B[2*i - j - 2] enddoall enddoall")
	f.Add("doall (i, 0, 5) doall (j, 0, 5) A[i + j, i - j] = A[i + j + 1, i - j - 1] + B[j, i] enddoall enddoall")
	// Nests at the edge of the closed-form model (also search inputs in
	// internal/partition's engine tests): extent at/below the spread
	// coefficient, and dependent subscript columns whose §3.4.1 reduction
	// leaves a non-square G'. These keep the fuzzer mutating around the
	// boundary where classes fall back to enumeration.
	f.Add("doall (i, 0, 4) doall (j, 0, 4) A[i, j] = A[i + 5, j] enddoall enddoall")
	f.Add("doall (i, 0, 7) doall (j, 0, 7) A[i + j, i + j] = A[i + j - 1, i + j - 1] enddoall enddoall")
	rnd := rand.New(rand.NewSource(99))
	for i := 0; i < 8; i++ {
		f.Add(RandomNest(rnd, GenConfig{}))
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := loopir.Parse(src, nil)
		if err != nil || n.Validate() != nil || !fuzzDiffable(n) {
			t.Skip()
		}
		a, err := footprint.Analyze(n)
		if err != nil {
			t.Skip()
		}
		if _, err := DiffAnalysis(a, DefaultTolerance); err != nil {
			t.Fatalf("model disagrees with enumeration:\n%s\n%v", src, err)
		}
	})
}

// FuzzCommSets mutates loopir source text and runs the full
// communication-set differential on every nest that parses and stays
// within the enumeration bounds: engines vs oracle to the element, the
// message-passing executor's measured words vs the prediction, and the
// coherence sandwich where eligible. Front-of-pipeline rejections
// (ErrCommDiffUnsupported) are skips; any disagreement is a crash.
func FuzzCommSets(f *testing.F) {
	f.Add("doall (i, 0, 15) A[i] = A[i + 2] + 1 enddoall")
	f.Add("doall (i, 0, 15) A[i] = A[i - 1] + 1 enddoall")
	f.Add("doall (i, 1, 8) doall (j, 1, 8) B[i, j] = B[i + 1, j + 3] + 1 enddoall enddoall")
	f.Add("doall (i, 101, 110) doall (j, 1, 10) B[i+j, i-j-1] = B[i+j+4, i-j+3] + 1 enddoall enddoall")
	f.Add("doseq (s, 1, 3) doall (i, 1, 12) doall (j, 1, 12) A[i, j] = A[i + 1, j] + A[i, j + 1] enddoall enddoall enddoseq")
	f.Add("doall (i, 0, 12) doall (j, 0, 6) A[i + j] = B[j] + 1 enddoall enddoall")
	rnd := rand.New(rand.NewSource(7))
	for i := 0; i < 6; i++ {
		f.Add(RandomNest(rnd, GenConfig{}))
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := loopir.Parse(src, nil)
		if err != nil || n.Validate() != nil || !fuzzDiffable(n) {
			t.Skip()
		}
		if _, err := DiffCommSets(src, 3); err != nil {
			if errors.Is(err, ErrCommDiffUnsupported) {
				t.Skip()
			}
			t.Fatalf("comm-set differential failed:\n%s\n%v", src, err)
		}
	})
}

// FuzzHNF decodes raw bytes into a small integer matrix and asserts the
// Hermite and Smith normal form contracts (CheckHNF / CheckSNF): either a
// reported overflow, or transforms that reproduce the input exactly.
func FuzzHNF(f *testing.F) {
	f.Add([]byte{2, 2, 1, 2, 3, 4})
	f.Add([]byte{3, 3, 2, 4, 4, 250, 6, 12, 10, 4, 16})
	f.Add([]byte{1, 4, 0, 0, 0, 0})
	f.Add([]byte{4, 1, 128, 127, 1, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		m, ok := matFromBytes(data)
		if !ok {
			t.Skip()
		}
		if err := CheckHNF(m); err != nil {
			t.Fatalf("HNF contract violated for %v: %v", m, err)
		}
		if err := CheckSNF(m); err != nil {
			t.Fatalf("SNF contract violated for %v: %v", m, err)
		}
	})
}

// matFromBytes decodes [rows, cols, entries...] with each entry an int8.
// Undersized or oversized shapes reject the input.
func matFromBytes(data []byte) (intmat.Mat, bool) {
	if len(data) < 3 {
		return intmat.Mat{}, false
	}
	rows := int(data[0]%4) + 1
	cols := int(data[1]%4) + 1
	if len(data)-2 < rows*cols {
		return intmat.Mat{}, false
	}
	m := intmat.NewMat(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, int64(int8(data[2+i*cols+j])))
		}
	}
	return m, true
}
