package looppart

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"looppart/internal/intmat"
)

// raceDetector reports a build with the race detector (race_test.go).
var raceDetector = false

// numbersNest renders a random nest whose subscripts mix small numbers
// with int64-range ones: 1–3 doall loops of 2–10 iterations and 2–5
// references, each coefficient and offset small half the time and
// otherwise a signed power of two in 2³⁰…2⁶², or uniform in ±2³⁹.
func numbersNest(rng *rand.Rand) string {
	vars := []string{"i", "j", "k"}[:1+rng.Intn(3)]
	dims := 1 + rng.Intn(3)
	number := func() int64 {
		switch {
		case rng.Intn(2) == 0:
			return rng.Int63n(9) - 4
		case rng.Intn(2) == 0:
			v := int64(1) << (30 + rng.Intn(33))
			if rng.Intn(2) == 0 {
				v = -v
			}
			return v + rng.Int63n(5) - 2
		default:
			return rng.Int63n(1<<40) - 1<<39
		}
	}
	ref := func(array string) string {
		subs := make([]string, dims)
		for d := range subs {
			var b strings.Builder
			for _, v := range vars {
				if c := number(); c != 0 {
					fmt.Fprintf(&b, "%+d*%s", c, v)
				}
			}
			fmt.Fprintf(&b, "%+d", number())
			subs[d] = strings.TrimPrefix(b.String(), "+")
		}
		return array + "[" + strings.Join(subs, ", ") + "]"
	}
	var src strings.Builder
	for _, v := range vars {
		lo := rng.Int63n(7) - 3
		fmt.Fprintf(&src, "doall (%s, %d, %d)\n", v, lo, lo+1+rng.Int63n(9))
	}
	reads := make([]string, 1+rng.Intn(4))
	for r := range reads {
		reads[r] = ref([]string{"A", "B"}[rng.Intn(2)])
	}
	fmt.Fprintf(&src, "%s = %s\n", ref("A"), strings.Join(reads, " + "))
	for range vars {
		src.WriteString("enddoall\n")
	}
	return src.String()
}

// checkOverflowErr fails the test for an error that reports int64
// overflow — by name, or as an infinite footprint JSON could not encode —
// without wrapping intmat.ErrOverflow.
func checkOverflowErr(t *testing.T, stage string, err error, src string) {
	t.Helper()
	if err == nil || errors.Is(err, intmat.ErrOverflow) {
		return
	}
	if msg := err.Error(); strings.Contains(msg, "overflow") || strings.Contains(msg, "unsupported value") {
		t.Fatalf("%s: overflow error does not wrap intmat.ErrOverflow: %v\n%s", stage, err, src)
	}
}

// numbersStrategies are the strategies the corpus and FuzzPlanNumbers
// plan every nest under.
var numbersStrategies = []Strategy{Auto, Rect, Skewed, CommFree, Rows, Columns, Blocks, AbrahamHudak, LowerBound, Oblivious}

// planNumbers serves src under strategy s, then verifies the served plan
// and computes its communication summary, checking that every overflow
// on the way is an error wrapping intmat.ErrOverflow. It reports whether
// a plan was served and whether planning overflowed.
func planNumbers(t *testing.T, svc *Service, src string, procs int, s Strategy) (planned, overflowed bool) {
	t.Helper()
	ctx := context.Background()
	req := PlanRequest{Source: src, Procs: procs, Strategy: s.String()}
	resp, err := svc.Plan(ctx, req)
	checkOverflowErr(t, "plan "+s.String(), err, src)
	if err != nil {
		return false, errors.Is(err, intmat.ErrOverflow)
	}
	res, err := resp.Decode()
	if err != nil {
		t.Fatalf("served bytes do not decode: %v\n%s", err, src)
	}
	svc.Verify(req, res)
	_, err = svc.CommSummary(ctx, req, res)
	checkOverflowErr(t, "comm summary "+s.String(), err, src)
	return true, false
}

// TestPlanNumbersCorpus drives seeded nests with int64-range coefficients
// through the served pipeline — Service.Plan under every strategy, then
// Verify and CommSummary on each served plan. No stage may panic (a
// panic on a planning goroutine takes the whole daemon down), and every
// overflow must surface as an error wrapping intmat.ErrOverflow.
//
// The corpus is sequential, so the race detector finds nothing in it and
// only multiplies its cost (6,000 nests take about 40 s on one core, ten
// times that instrumented); race builds run its first 300 nests, and
// scripts/verify.sh runs the whole corpus uninstrumented.
func TestPlanNumbersCorpus(t *testing.T) {
	nests := 6000
	if raceDetector {
		nests = 300
	}
	const seed = 1
	rng := rand.New(rand.NewSource(seed))
	svc := NewService(ServiceOptions{})
	planned, overflowed := 0, 0
	for n := 0; n < nests; n++ {
		src := numbersNest(rng)
		procs := 1 + rng.Intn(8)
		for _, s := range numbersStrategies {
			p, o := planNumbers(t, svc, src, procs, s)
			if p {
				planned++
			}
			if o {
				overflowed++
			}
		}
	}
	t.Logf("seed %d: %d nests × %d strategies: %d planned, %d overflowed", seed, nests, len(numbersStrategies), planned, overflowed)
	if planned == 0 || overflowed == 0 {
		t.Errorf("corpus planned %d and overflowed %d; it must exercise both", planned, overflowed)
	}
}
