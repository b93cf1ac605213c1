package loopir

import (
	"reflect"
	"strings"
	"testing"
)

func TestScheduleSplit(t *testing.T) {
	n := MustParse(`
doall (i, 1, 3)
  doall (j, 5, 6)
    A[i,j] = 0
  enddoall
enddoall`, nil)
	s, err := NewSchedule(n, 2, func(p []int64) int { return int(p[0] % 2) })
	if err != nil {
		t.Fatal(err)
	}
	wantPts := [][]int64{{1, 5}, {1, 6}, {2, 5}, {2, 6}, {3, 5}, {3, 6}}
	if !reflect.DeepEqual(s.Points, wantPts) {
		t.Fatalf("points = %v, want %v", s.Points, wantPts)
	}
	if want := []int{1, 1, 0, 0, 1, 1}; !reflect.DeepEqual(s.Owner, want) {
		t.Fatalf("owners = %v, want %v", s.Owner, want)
	}
	if want := [][]int{{2, 3}, {0, 1, 4, 5}}; !reflect.DeepEqual(s.Tiles, want) {
		t.Fatalf("tiles = %v, want %v", s.Tiles, want)
	}
	if got := s.LoadImbalance(); got != 4.0/3 {
		t.Fatalf("load imbalance = %v, want 4/3", got)
	}
}

func TestScheduleRejectsOutOfRange(t *testing.T) {
	n := MustParse(`doall (i, 1, 4) A[i] = 0 enddoall`, nil)
	calls := 0
	_, err := NewSchedule(n, 2, func(p []int64) int {
		calls++
		return int(p[0]) - 1
	})
	if err == nil || !strings.Contains(err.Error(), "assigned to processor 2 of 2") {
		t.Fatalf("out-of-range owner: err = %v", err)
	}
	if calls != 3 {
		t.Fatalf("assignment called %d times, want to stop at the first bad point", calls)
	}
	if _, err := NewSchedule(n, 0, func([]int64) int { return 0 }); err == nil {
		t.Fatal("zero processors accepted")
	}
}

// TestScheduleEpochs checks the doseq epochs run in source order and
// every env binds the sequential and the doall variables.
func TestScheduleEpochs(t *testing.T) {
	n := MustParse(`
doseq (t, 1, 2)
  doseq (u, 0, 1)
    doall (i, 1, 2)
      A[i] = B[i]
    enddoall
  enddoseq
enddoseq`, nil)
	s, err := NewSchedule(n, 2, func(p []int64) int { return int(p[0]) - 1 })
	if err != nil {
		t.Fatal(err)
	}
	var got [][4]int64
	s.Walk(func(proc int, env map[string]int64) bool {
		got = append(got, [4]int64{env["t"], env["u"], env["i"], int64(proc)})
		return true
	})
	want := [][4]int64{
		{1, 0, 1, 0}, {1, 0, 2, 1}, {1, 1, 1, 0}, {1, 1, 2, 1},
		{2, 0, 1, 0}, {2, 0, 2, 1}, {2, 1, 1, 0}, {2, 1, 2, 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("walk = %v, want %v", got, want)
	}

	single := MustParse(`doall (i, 1, 2) A[i] = 0 enddoall`, nil)
	s, err = NewSchedule(single, 1, func([]int64) int { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	epochs := 0
	s.Epochs(func(env map[string]int64) bool {
		epochs++
		if len(env) != 0 {
			t.Errorf("epoch env of a nest without doseq = %v", env)
		}
		return true
	})
	if epochs != 1 {
		t.Fatalf("nest without doseq: %d epochs, want one", epochs)
	}
}
