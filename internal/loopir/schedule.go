package loopir

import "fmt"

// Schedule is one run of a nest under a partition: the doall points in
// lexicographic order, the processor that owns each, and each
// processor's points, replayed once per doseq epoch in source order
// (Fig. 9's doseq steady state). Every executor walks a Schedule, so the
// coherence simulator, the shared-memory executor and the
// message-passing executor replay one iteration order by construction.
// A Schedule is read-only once built.
type Schedule struct {
	Nest *Nest
	// Points are the doall iteration points, lexicographic; Owner[i]
	// runs Points[i].
	Points [][]int64
	Owner  []int
	// Tiles[proc] lists the indices of proc's points, ascending; there
	// is one tile per processor.
	Tiles [][]int

	doall, seq []Loop
}

// NewSchedule splits the nest's doall space among procs processors by
// assign. An assignment outside [0, procs) is an error, reported before
// anything runs.
func NewSchedule(n *Nest, procs int, assign func(p []int64) int) (*Schedule, error) {
	if procs <= 0 {
		return nil, fmt.Errorf("loopir: need at least one processor")
	}
	s := &Schedule{Nest: n, Tiles: make([][]int, procs), doall: n.DoallLoops(), seq: n.SeqLoops()}
	var err error
	odometer(s.doall, func(p []int64) bool {
		p = append([]int64(nil), p...)
		proc := assign(p)
		if proc < 0 || proc >= procs {
			err = fmt.Errorf("loopir: iteration %v assigned to processor %d of %d", p, proc, procs)
			return false
		}
		s.Tiles[proc] = append(s.Tiles[proc], len(s.Points))
		s.Points = append(s.Points, p)
		s.Owner = append(s.Owner, proc)
		return true
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Epochs calls fn once per doseq epoch in source order — once when the
// nest has no doseq loop — with a fresh env binding that epoch's
// sequential loop variables. Returning false from fn stops the walk.
func (s *Schedule) Epochs(fn func(env map[string]int64) bool) {
	odometer(s.seq, func(t []int64) bool {
		env := make(map[string]int64, len(s.seq)+len(s.doall))
		for k, l := range s.seq {
			env[l.Var] = t[k]
		}
		return fn(env)
	})
}

// Bind sets env's doall variables to the coordinates of point i.
func (s *Schedule) Bind(env map[string]int64, i int) {
	for k, l := range s.doall {
		env[l.Var] = s.Points[i][k]
	}
}

// Walk replays the schedule serially in source order: epoch by epoch,
// every point in lexicographic order, fn receiving the point's owner and
// an env binding every loop variable. Returning false from fn stops the
// walk.
func (s *Schedule) Walk(fn func(proc int, env map[string]int64) bool) {
	s.Epochs(func(env map[string]int64) bool {
		for i, proc := range s.Owner {
			s.Bind(env, i)
			if !fn(proc, env) {
				return false
			}
		}
		return true
	})
}

// LoadImbalance returns max/mean points per processor (1.0 = perfect).
func (s *Schedule) LoadImbalance() float64 {
	most := 0
	for _, tile := range s.Tiles {
		most = max(most, len(tile))
	}
	return float64(most) * float64(len(s.Tiles)) / float64(len(s.Points))
}
