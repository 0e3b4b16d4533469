package faulttest

import (
	"errors"
	"fmt"
	"testing"

	"mobidx/internal/pager"
)

// walOpen opens a WALStore over the given base with a fresh in-memory log.
func walOpen(t *testing.T, base pager.Store) *pager.WALStore {
	t.Helper()
	w, err := pager.OpenWALStore(base, pager.NewMemLog(), pager.WALConfig{})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	return w
}

// autoCheckpoint is a WALStore as a writer that bounds its log drives it:
// every call that may have committed a batch — the outermost Commit, or a
// Write, Allocate or Free run as a batch of one — is followed by
// CheckpointIfDue(limit), which skips while a batch is open.
type autoCheckpoint struct {
	*pager.WALStore
	limit int64
}

func (a autoCheckpoint) due(err error) error {
	if err != nil {
		return err
	}
	return a.CheckpointIfDue(a.limit)
}

func (a autoCheckpoint) Commit() error             { return a.due(a.WALStore.Commit()) }
func (a autoCheckpoint) Write(p *pager.Page) error { return a.due(a.WALStore.Write(p)) }
func (a autoCheckpoint) Free(id pager.PageID) error {
	return a.due(a.WALStore.Free(id))
}

func (a autoCheckpoint) Allocate() (*pager.Page, error) {
	p, err := a.WALStore.Allocate()
	if err != nil {
		return nil, err
	}
	return p, a.due(nil)
}

// walBaselines computes each workload's ground-truth fingerprint through a
// fault-free WALStore, which must agree with the raw-store baseline: the
// WAL layer is transparent to correct executions.
func walBaselines(t *testing.T) map[string]string {
	t.Helper()
	raw := baselines(t)
	for _, w := range Workloads() {
		ws := walOpen(t, pager.NewMemStore(PageSize))
		res, err, pan := RunGuarded(w, ws)
		if pan != nil {
			t.Fatalf("%s: clean WAL run panicked: %v", w.Name, pan)
		}
		if err != nil {
			t.Fatalf("%s: clean WAL run failed: %v", w.Name, err)
		}
		if res != raw[w.Name] {
			t.Fatalf("%s: WAL-backed run diverged from the raw-store baseline", w.Name)
		}
	}
	return raw
}

// walErrTyped reports whether an error from a WAL-backed workload under
// injected base faults stays inside the storage error taxonomy. Beyond the
// raw-store classes, the WAL layer may legitimately report a poisoned
// store (a fault struck after the commit record was durable) or an aborted
// enclosing batch.
func walErrTyped(err error) bool {
	return errors.Is(err, pager.ErrInjected) ||
		errors.Is(err, pager.ErrPageNotFound) ||
		errors.Is(err, pager.ErrStoreFailed) ||
		errors.Is(err, pager.ErrBatchAborted) ||
		errors.Is(err, pager.ErrWALCorrupt) ||
		errors.Is(err, pager.ErrWALReplay)
}

// TestWALFaultSweepPermanent drives every workload through a WALStore
// whose base store fails each operation class permanently: no panic, and
// every failure is typed.
func TestWALFaultSweepPermanent(t *testing.T) {
	base := walBaselines(t)
	classes := []struct {
		name string
		set  func(*pager.FaultConfig, pager.OpFaults)
	}{
		{"read", func(c *pager.FaultConfig, f pager.OpFaults) { c.Read = f }},
		{"write", func(c *pager.FaultConfig, f pager.OpFaults) { c.Write = f }},
		{"alloc", func(c *pager.FaultConfig, f pager.OpFaults) { c.Alloc = f }},
		{"free", func(c *pager.FaultConfig, f pager.OpFaults) { c.Free = f }},
	}
	for _, w := range Workloads() {
		for _, cl := range classes {
			for _, every := range []int64{3, 17, 101} {
				t.Run(fmt.Sprintf("%s/%s/every=%d", w.Name, cl.name, every), func(t *testing.T) {
					cfg := pager.FaultConfig{Seed: 7000 + every}
					cl.set(&cfg, pager.OpFaults{FailEvery: every})
					faulty := pager.NewFaultStore(pager.NewMemStore(PageSize), cfg)
					ws, err := pager.OpenWALStore(faulty, pager.NewMemLog(), pager.WALConfig{})
					if err != nil {
						if !walErrTyped(err) {
							t.Fatalf("open failed untyped: %v", err)
						}
						return
					}
					res, err, pan := RunGuarded(w, ws)
					if pan != nil {
						t.Fatalf("panicked under injected faults: %v", pan)
					}
					if err == nil {
						if faulty.Counters().Total() != 0 {
							t.Fatal("faults were injected but no error surfaced")
						}
						if res != base[w.Name] {
							t.Fatal("fault-free run diverged from baseline")
						}
						return
					}
					if !walErrTyped(err) {
						t.Fatalf("error escaped the storage taxonomy: %v", err)
					}
				})
			}
		}
	}
}

// TestWALFaultSweepQuiescence composes WALStore(retrying(Fault(Mem))) with
// transient faults in every class: retries absorb them beneath the WAL, so every workload must complete and answer exactly as the
// fault-free baseline does. Auto-checkpointing runs throughout, exercising
// the checkpoint path under the same fault pressure.
func TestWALFaultSweepQuiescence(t *testing.T) {
	base := walBaselines(t)
	for _, rate := range []float64{0.05, 0.2} {
		for _, w := range Workloads() {
			t.Run(fmt.Sprintf("%s/rate=%v", w.Name, rate), func(t *testing.T) {
				faulty := pager.NewFaultStore(pager.NewMemStore(PageSize), pager.FaultConfig{
					Seed:      90210,
					Read:      pager.OpFaults{FailProb: rate},
					Write:     pager.OpFaults{FailProb: rate},
					Alloc:     pager.OpFaults{FailProb: rate},
					Free:      pager.OpFaults{FailProb: rate},
					Transient: true,
				})
				ws, err := pager.OpenWALStore(retrying{faulty}, pager.NewMemLog(), pager.WALConfig{})
				if err != nil {
					t.Fatalf("open wal over retry stack: %v", err)
				}
				res, err, pan := RunGuarded(w, autoCheckpoint{ws, 64 * 1024})
				if pan != nil {
					t.Fatalf("panicked under transient faults: %v", pan)
				}
				if err != nil {
					t.Fatalf("transient faults at rate %v escaped the retries: %v", rate, err)
				}
				if faulty.Counters().Total() == 0 {
					t.Fatalf("rate %v injected no faults; sweep is vacuous", rate)
				}
				if res != base[w.Name] {
					t.Fatalf("rate %v: results diverged from fault-free baseline", rate)
				}
				if err := ws.Close(); err != nil {
					t.Fatalf("close after quiescence: %v", err)
				}
			})
		}
	}
}

// corpusLog runs a multi-batch patterned workload against a WALStore with
// no checkpointing and returns the raw log bytes plus the number of
// committed batches. Every batch lives in the log — nothing has been
// applied to a base — so the log alone (over a fresh base, via degraded
// replay) reconstructs the whole history.
func corpusLog(t *testing.T) ([]byte, uint64) {
	t.Helper()
	log := pager.NewMemLog()
	ws, err := pager.OpenWALStore(pager.NewMemStore(PageSize), log, pager.WALConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []pager.PageID
	for b := 0; b < 6; b++ {
		err := pager.RunBatch(ws, func() error {
			p, err := ws.Allocate()
			if err != nil {
				return err
			}
			for i := range p.Data {
				p.Data[i] = byte(b) ^ byte(i*13)
			}
			if err := ws.Write(p); err != nil {
				return err
			}
			ids = append(ids, p.ID)
			if b >= 2 {
				// Rewrite an older page too: multi-page batches.
				old, err := ws.Read(ids[b-2])
				if err != nil {
					return err
				}
				old.Data[0] ^= 0xFF
				return ws.Write(old)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("batch %d: %v", b, err)
		}
	}
	seq := ws.CommittedSeq()
	data := log.Bytes()
	return data, seq
}

// reopenCorrupted replays a (possibly corrupted) log image over a fresh
// base store, converting panics into test failures, and returns the
// recovered sequence number.
func reopenCorrupted(t *testing.T, img []byte) (seq uint64, err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("recovery panicked: %v", r)
		}
	}()
	log := pager.NewMemLogFrom(img)
	ws, err := pager.OpenWALStore(pager.NewMemStore(PageSize), log, pager.WALConfig{})
	if err != nil {
		return 0, err
	}
	return ws.CommittedSeq(), nil
}

// TestWALLogBitFlipTrials flips every byte of a committed log image, one
// trial at a time, and re-runs recovery. Each trial must either fail with
// the typed corruption error or recover cleanly — and a clean recovery may
// have truncated at most the final batch (a flip in the last batch is
// indistinguishable from a torn tail). Anything less is silent data loss.
func TestWALLogBitFlipTrials(t *testing.T) {
	img, seq := corpusLog(t)
	trials, corrupt, clean := 0, 0, 0
	for off := 0; off < len(img); off++ {
		bit := byte(1) << (off % 8)
		mut := append([]byte(nil), img...)
		mut[off] ^= bit
		got, err := reopenCorrupted(t, mut)
		trials++
		if err != nil {
			if !errors.Is(err, pager.ErrWALCorrupt) {
				t.Fatalf("flip at %d: untyped recovery failure: %v", off, err)
			}
			corrupt++
			continue
		}
		clean++
		if got > seq {
			t.Fatalf("flip at %d: recovery invented batches: seq %d > %d", off, got, seq)
		}
		if got < seq-1 {
			t.Fatalf("flip at %d: silent loss: recovered seq %d, committed %d", off, got, seq)
		}
	}
	if corrupt == 0 || clean == 0 {
		t.Fatalf("degenerate trial mix: %d corrupt, %d clean of %d", corrupt, clean, trials)
	}
	t.Logf("%d byte-flip trials: %d detected as corruption, %d recovered cleanly", trials, corrupt, clean)
}

// TestWALLogTruncationTrials cuts a committed log image at every length
// and re-runs recovery: every prefix is a state a crashed append could
// leave behind, so recovery must never panic and never report anything but
// clean truncation (a prefix of the committed history) or the typed
// corruption error for prefixes that predate the first commit (a fresh
// base cannot prove such a log empty of committed data).
func TestWALLogTruncationTrials(t *testing.T) {
	img, seq := corpusLog(t)
	prev := uint64(0)
	for cut := 0; cut <= len(img); cut++ {
		got, err := reopenCorrupted(t, img[:cut])
		if err != nil {
			if !errors.Is(err, pager.ErrWALCorrupt) {
				t.Fatalf("cut at %d: untyped recovery failure: %v", cut, err)
			}
			continue
		}
		if got > seq {
			t.Fatalf("cut at %d: recovery invented batches: seq %d > %d", cut, got, seq)
		}
		if got < prev {
			t.Fatalf("cut at %d: longer prefix recovered less: seq %d after %d", cut, got, prev)
		}
		prev = got
	}
	if prev != seq {
		t.Fatalf("full-length image recovered seq %d, want %d", prev, seq)
	}
}
