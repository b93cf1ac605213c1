// Package msgexec executes a partitioned loop nest under explicit
// message passing — no cache coherence, no shared memory.
//
// Each processor owns a private copy of every array. An epoch (one
// doseq iteration, or the whole nest when there is none) runs
// bulk-synchronously: every processor executes its iterations against
// its own store, a barrier, then the exchange phase moves exactly the
// per-pair transfer sets the communication-set analysis
// (internal/commsets) predicted — each producer sends its freshly
// written values to every consumer, one word per element. The words a
// run actually moves are counted and reported next to the analysis'
// prediction; when the plan admits deterministic message passing
// (commsets.Analysis.CanCheckValues), the final state — assembled by
// taking each element from its unique producer — is checked against the
// sequential reference execution.
//
// Reads see the local copy: a remote write lands only at the next epoch
// boundary. That is exactly the paper's doall contract (no cross-tile
// dependences within a parallel step) made operational, which is why
// backward same-epoch dependences disqualify the value check.
package msgexec

import (
	"fmt"

	"looppart/internal/commsets"
	"looppart/internal/exec"
	"looppart/internal/loopir"
)

// Report is one message-passing run's accounting.
type Report struct {
	Procs  int
	Epochs int
	// WordsMoved is the total words actually sent across the run;
	// PredictedWords is the analysis' per-epoch total × Epochs. The two
	// must agree for every plan — verify.DiffCommSets asserts it.
	WordsMoved     int64
	PredictedWords int64
	// ValuesChecked reports that the run also verified the assembled
	// final state against the sequential execution (and found it equal;
	// a mismatch is an error, not a report).
	ValuesChecked bool
}

// Run executes the nest under message passing for the plan whose
// communication sets are comm (which must be materialized). assign is
// the plan's iteration→processor map. Returns the run's accounting; a
// value mismatch against the sequential reference is an error.
func Run(n *loopir.Nest, assign func(p []int64) int, comm *commsets.Analysis) (*Report, error) {
	ex, err := comm.Exchange()
	if err != nil {
		return nil, err
	}
	procs := comm.Procs
	s, err := loopir.NewSchedule(n, procs, assign)
	if err != nil {
		return nil, err
	}

	init, err := exec.StoreFor(n)
	if err != nil {
		return nil, err
	}
	// Deterministic non-trivial initial data: the value check must
	// distinguish "transfer sets suffice" from "everything was zero".
	for _, arr := range init {
		arr.Fill(func(idx []int64) float64 {
			h := int64(1)
			for _, v := range idx {
				h = h*31 + v
			}
			return float64(h%97) / 8
		})
	}

	// Sequential reference run.
	seq := cloneStore(init)
	exec.RunSequential(n, seq)

	// Private per-processor stores.
	locals := make([]exec.Store, procs)
	for p := range locals {
		locals[p] = cloneStore(init)
	}

	rep := &Report{Procs: procs}
	// After each epoch's barrier, producers push their fresh values to
	// consumers.
	exec.RunTiles(s, locals, func() {
		for _, t := range ex.Pairs {
			src, dst := locals[t.From], locals[t.To]
			for _, e := range t.Elems {
				dst[e.Array].Set(e.Index, src[e.Array].At(e.Index))
			}
			rep.WordsMoved += int64(len(t.Elems))
		}
		rep.Epochs++
	})

	rep.PredictedWords = comm.TotalWords * int64(rep.Epochs)
	if rep.WordsMoved != rep.PredictedWords {
		return rep, fmt.Errorf("msgexec: moved %d words, comm sets predicted %d (%d/epoch × %d epochs)",
			rep.WordsMoved, rep.PredictedWords, comm.TotalWords, rep.Epochs)
	}

	if comm.CanCheckValues() {
		// Assemble the final state: every element from its unique
		// producer, untouched elements from the initial store.
		final := cloneStore(init)
		for p := range ex.Owned {
			src := locals[p]
			for _, e := range ex.Owned[p] {
				final[e.Array].Set(e.Index, src[e.Array].At(e.Index))
			}
		}
		const eps = 1e-9
		for name, want := range seq {
			if !final[name].EqualWithin(want, eps) {
				return rep, fmt.Errorf("msgexec: array %s diverges from the sequential run", name)
			}
		}
		rep.ValuesChecked = true
	}
	return rep, nil
}

func cloneStore(st exec.Store) exec.Store {
	out := make(exec.Store, len(st))
	for name, arr := range st {
		out[name] = arr.Clone()
	}
	return out
}
