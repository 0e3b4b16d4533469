package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"mobidx/internal/leakcheck"
	"mobidx/internal/pager"
)

// TestPartialErrorUnwrap pins the error-tree semantics callers rely on:
// a *PartialError exposes every per-shard cause through Unwrap() []error,
// so errors.Is and errors.As reach them — directly, through fmt.Errorf
// wrapping, and through errors.Join with unrelated errors.
func TestPartialErrorUnwrap(t *testing.T) {
	inj := &pager.InjectedError{Op: "read", Page: 7, N: 1, Transient: true}
	pe := &PartialError{
		Missing: []int{1, 3},
		Causes: []error{
			fmt.Errorf("shard 1: %w", inj),
			fmt.Errorf("shard 3 unhealthy: %w", ErrShardDown),
		},
	}
	if !errors.Is(pe, ErrShardDown) {
		t.Error("errors.Is(pe, ErrShardDown) = false, want true via Causes")
	}
	if !errors.Is(pe, pager.ErrTransient) || !errors.Is(pe, pager.ErrInjected) {
		t.Error("transient injected cause not reachable through Unwrap")
	}
	var gotInj *pager.InjectedError
	if !errors.As(pe, &gotInj) || gotInj.Page != 7 {
		t.Errorf("errors.As did not recover the injected cause: %+v", gotInj)
	}

	// Wrapped once more (the way callers annotate failures).
	wrapped := fmt.Errorf("serving tick 12: %w", pe)
	var gotPE *PartialError
	if !errors.As(wrapped, &gotPE) || len(gotPE.Missing) != 2 {
		t.Fatalf("errors.As through fmt wrapping failed: %v", wrapped)
	}
	if !errors.Is(wrapped, ErrShardDown) {
		t.Error("cause lost through fmt wrapping")
	}

	// Joined with an unrelated error (multi-operation aggregation).
	joined := errors.Join(context.DeadlineExceeded, wrapped)
	gotPE = nil
	if !errors.As(joined, &gotPE) || gotPE != pe {
		t.Fatal("errors.As through errors.Join did not find the PartialError")
	}
	if !errors.Is(joined, pager.ErrTransient) {
		t.Error("shard cause lost through errors.Join")
	}
}

// TestPartialErrorMissingDeterministic kills two shards of four and
// queries repeatedly: Missing must list the dead bands ascending with
// Causes parallel, identically on every call, regardless of the order the
// concurrent per-shard tasks happened to finish in.
func TestPartialErrorMissingDeterministic(t *testing.T) {
	leakcheck.Check(t)
	pol := Policy{
		BreakAfter: 1 << 30, // keep the breaker out of it: every call really fails
	}
	r, faults := cluster(t, 4, 4, pol)
	ms := motions1D(192)
	if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 2} {
		faults[id].SetConfig(pager.FaultConfig{
			Seed: int64(100 + id),
			Read: pager.OpFaults{FailEvery: 1},
		})
	}
	q := queries1D[1] // full-terrain sweep: targets every band
	var first *PartialError
	for round := 0; round < 8; round++ {
		_, err := r.Query(context.Background(), q)
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: err = %v, want PartialError", round, err)
		}
		if len(pe.Causes) != len(pe.Missing) {
			t.Fatalf("round %d: %d causes for %d missing", round, len(pe.Causes), len(pe.Missing))
		}
		for i := 1; i < len(pe.Missing); i++ {
			if pe.Missing[i] <= pe.Missing[i-1] {
				t.Fatalf("round %d: Missing not ascending: %v", round, pe.Missing)
			}
		}
		if len(pe.Missing) != 2 || pe.Missing[0] != 0 || pe.Missing[1] != 2 {
			t.Fatalf("round %d: Missing = %v, want [0 2]", round, pe.Missing)
		}
		if first == nil {
			first = pe
			continue
		}
		for i := range first.Missing {
			if pe.Missing[i] != first.Missing[i] {
				t.Fatalf("round %d: Missing %v differs from first round %v", round, pe.Missing, first.Missing)
			}
		}
	}
}

// TestPartialErrorThroughBreaker drives one shard through the
// breaker: its first failed call opens it, the next query skips the shard.
// Both answers degrade, and each PartialError carries its root cause
// through every layer of wrapping: the injected storage fault for the
// call that failed, ErrShardDown for the call the breaker skipped.
func TestPartialErrorThroughBreaker(t *testing.T) {
	leakcheck.Check(t)
	r, faults := cluster(t, 2, 2, Policy{BreakAfter: 1, OpenFor: time.Hour})
	ms := motions1D(128)
	if err := r.Apply(context.Background(), opsFor(ms)); err != nil {
		t.Fatal(err)
	}
	faults[0].SetConfig(pager.FaultConfig{Seed: 100, Read: pager.OpFaults{FailEvery: 1}})
	for round, cause := range []error{pager.ErrInjected, ErrShardDown} {
		_, err := r.Query(context.Background(), queries1D[1])
		var pe *PartialError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: err = %v, want PartialError", round, err)
		}
		if len(pe.Missing) != 1 || pe.Missing[0] != 0 {
			t.Fatalf("round %d: Missing = %v, want [0]", round, pe.Missing)
		}
		if !errors.Is(pe, cause) {
			t.Errorf("round %d: %v not reachable through PartialError: %v", round, cause, pe)
		}
	}
	st := r.Stats()
	if st.BreakerOpens != 1 || st.BreakerSkips != 1 || st.FailedShards != 1 {
		t.Errorf("breaker traffic = %+v, want one open, one skip, one failed call", st)
	}
	if st.Partial != 2 {
		t.Errorf("Partial = %d, want 2", st.Partial)
	}
}
