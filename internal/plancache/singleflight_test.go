package plancache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"looppart/internal/obs"
)

// TestGroupCollapsesConcurrentCalls proves real dedup: the leader's fn
// blocks until all other callers have joined the flight, so exactly one
// execution serves everyone.
func TestGroupCollapsesConcurrentCalls(t *testing.T) {
	const K = 8
	var g Group[[]byte]
	var runs atomic.Int64
	joined := make(chan struct{})
	release := make(chan struct{})

	fn := func() ([]byte, error) {
		runs.Add(1)
		<-release
		return []byte("plan"), nil
	}

	var wg sync.WaitGroup
	var sharedCount atomic.Int64
	wg.Add(K)
	for i := 0; i < K; i++ {
		go func() {
			defer wg.Done()
			<-joined
			v, shared, _, err := g.Do(context.Background(), "key", fn)
			if err != nil || string(v) != "plan" {
				t.Errorf("Do = %q, %v", v, err)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Start the leader flight, then let the rest pile on before releasing.
	close(joined)
	for g.Dedups() < K-1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Errorf("fn ran %d times, want 1", n)
	}
	if n := sharedCount.Load(); n != K-1 {
		t.Errorf("%d callers reported shared, want %d", n, K-1)
	}
}

func TestGroupSequentialCallsRunSeparately(t *testing.T) {
	var g Group[[]byte]
	var runs atomic.Int64
	fn := func() ([]byte, error) { runs.Add(1); return nil, nil }
	for i := 0; i < 3; i++ {
		if _, shared, _, err := g.Do(context.Background(), "k", fn); err != nil || shared {
			t.Fatalf("Do #%d: shared=%v err=%v", i, shared, err)
		}
	}
	if n := runs.Load(); n != 3 {
		t.Errorf("fn ran %d times, want 3 (no flight was in progress)", n)
	}
}

func TestGroupPropagatesError(t *testing.T) {
	var g Group[[]byte]
	boom := errors.New("boom")
	_, _, _, err := g.Do(context.Background(), "k", func() ([]byte, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
}

// TestGroupOwnerTraceAndFlights: waiters joining a flight learn the
// owner's trace ID, and Flights() exposes the live flight with its
// waiter count while the flight is held open.
func TestGroupOwnerTraceAndFlights(t *testing.T) {
	var g Group[[]byte]
	ownerCtx := obs.WithTrace(context.Background(), obs.NewTrace("owner-trace-1", "root", nil))
	release := make(chan struct{})
	started := make(chan struct{})

	ownerDone := make(chan string, 1)
	go func() {
		_, _, ot, _ := g.Do(ownerCtx, "k", func() ([]byte, error) {
			close(started)
			<-release
			return []byte("v"), nil
		})
		ownerDone <- ot
	}()
	<-started

	waiterDone := make(chan string, 1)
	go func() {
		_, shared, ot, _ := g.Do(context.Background(), "k", func() ([]byte, error) {
			t.Error("waiter fn must not run")
			return nil, nil
		})
		if !shared {
			t.Error("waiter not marked shared")
		}
		waiterDone <- ot
	}()
	for g.Dedups() < 1 {
		time.Sleep(time.Millisecond)
	}

	fl := g.Flights()
	if len(fl) != 1 || fl[0].Key != "k" || fl[0].OwnerTrace != "owner-trace-1" {
		t.Fatalf("Flights() = %+v, want one flight for k owned by owner-trace-1", fl)
	}
	if fl[0].Waiters != 1 {
		t.Fatalf("flight waiters = %d, want 1", fl[0].Waiters)
	}
	if fl[0].AgeNs <= 0 {
		t.Fatalf("flight age = %d, want > 0", fl[0].AgeNs)
	}

	close(release)
	if ot := <-ownerDone; ot != "owner-trace-1" {
		t.Fatalf("owner saw ownerTrace %q", ot)
	}
	if ot := <-waiterDone; ot != "owner-trace-1" {
		t.Fatalf("waiter saw ownerTrace %q, want owner-trace-1", ot)
	}
	if fl := g.Flights(); len(fl) != 0 {
		t.Fatalf("flights after completion = %+v, want none", fl)
	}
}

// TestGroupContextLeavesFlightRunning: a waiter whose context expires
// returns promptly, but the flight itself completes and its side effects
// (the cache fill) still happen.
func TestGroupContextLeavesFlightRunning(t *testing.T) {
	var g Group[[]byte]
	release := make(chan struct{})
	finished := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())

	done := make(chan error, 1)
	go func() {
		_, _, _, err := g.Do(ctx, "k", func() ([]byte, error) {
			<-release
			close(finished)
			return []byte("x"), nil
		})
		done <- err
	}()

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	close(release)
	select {
	case <-finished:
	case <-time.After(5 * time.Second):
		t.Fatal("flight did not complete after the waiter left")
	}
}
