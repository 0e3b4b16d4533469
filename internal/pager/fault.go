package pager

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Storage fault taxonomy. Every failure a Store can produce falls into one
// of three classes (see DESIGN.md "Storage robustness"):
//
//   - permanent: the operation failed and will keep failing (bad page id,
//     closed store, media error). Propagated to the caller.
//   - transient: the operation failed but may succeed if retried (injected
//     by FaultStore with Transient: true). Nothing in the stack retries
//     them; a caller that sees one may.
//   - silent: the operation "succeeded" but the data is wrong (bit rot,
//     torn write). FileStore's page trailers convert them into detected
//     ErrPageCorrupt errors.
var (
	// ErrInjected marks failures manufactured by a FaultStore.
	ErrInjected = errors.New("pager: injected fault")
	// ErrTransient marks failures worth retrying; test with IsTransient.
	ErrTransient = errors.New("pager: transient fault")
)

// IsTransient reports whether err is a retryable storage fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransient) }

// InjectedError is the concrete error returned by FaultStore. It matches
// ErrInjected always and ErrTransient when the fault was transient.
type InjectedError struct {
	Op        string // "read", "write", "alloc", "free"
	Page      PageID // page involved (0 for alloc)
	N         int64  // ordinal of this fault (1-based over the store's life)
	Transient bool
}

// Error implements error.
func (e *InjectedError) Error() string {
	kind := "permanent"
	if e.Transient {
		kind = "transient"
	}
	return fmt.Sprintf("pager: injected %s %s fault #%d (page %d)", kind, e.Op, e.N, e.Page)
}

// Is lets errors.Is match both ErrInjected and (when transient) ErrTransient.
func (e *InjectedError) Is(target error) bool {
	return target == ErrInjected || (e.Transient && target == ErrTransient)
}

// OpFaults configures fault injection for one operation class. Both
// triggers may be active at once; an operation faults if either fires.
type OpFaults struct {
	// FailEvery injects a fault on the Nth, 2Nth, 3Nth... operation of the
	// class (counted over the store's lifetime). Zero disables.
	FailEvery int64
	// FailProb independently faults each operation with this probability,
	// drawn from the store's seeded generator. Zero disables.
	FailProb float64
}

func (o OpFaults) fires(count int64, rng *rand.Rand) bool {
	if o.FailEvery > 0 && count%o.FailEvery == 0 {
		return true
	}
	return o.FailProb > 0 && rng.Float64() < o.FailProb
}

// FaultConfig configures a FaultStore. The zero value injects nothing.
type FaultConfig struct {
	// Seed seeds the store's private random generator; runs with the same
	// seed and operation sequence inject exactly the same faults.
	Seed int64
	// Per-class triggers.
	Read, Write, Alloc, Free OpFaults
	// TornWrites makes an injected write fault tear the page: a random
	// non-empty prefix of the new data reaches the underlying store, the
	// rest of the slot keeps its previous contents, and the write still
	// returns an error (the caller knows it failed; the on-disk page is
	// now silently inconsistent, as after a crash mid-write).
	TornWrites bool
	// Transient marks injected errors retryable (see IsTransient). Torn
	// writes are never transient: retrying cannot undo them.
	Transient bool
	// Stall turns injected read faults into stragglers instead of errors:
	// the read sleeps this long and then succeeds. A stalled shard is the
	// third failure mode a serving layer must survive (after fail-fast and
	// fail-silent) — it holds resources while producing nothing until the
	// read returns. Zero disables stalling.
	Stall time.Duration
	// MaxFaults caps the total number of injected faults; zero means
	// unlimited. Once spent, the store behaves like its underlying store —
	// the workload reaches quiescence.
	MaxFaults int64
}

// FaultCounters reports what a FaultStore has done so far.
type FaultCounters struct {
	Reads, Writes, Allocs, Frees         int64 // operations seen
	ReadFaults, WriteFaults, AllocFaults int64 // faults injected
	FreeFaults                           int64
	TornWrites                           int64 // silent corruptions among the above
	Stalls                               int64 // read faults converted to stragglers
}

// Total returns the total number of injected faults.
func (c FaultCounters) Total() int64 {
	return c.ReadFaults + c.WriteFaults + c.AllocFaults + c.FreeFaults
}

// FaultStore wraps a Store and injects faults deterministically from a
// seed: errors, stalls and torn writes, per FaultConfig. It is the test
// substrate for the robustness properties above the media — wrap any
// store with it and assert that the structure above survives. Damage to
// the media itself (a flipped byte on disk) is injected into the File
// under a FileStore instead, where the page trailers must catch it.
type FaultStore struct {
	mu    sync.Mutex
	under Store
	cfg   FaultConfig
	rng   *rand.Rand
	ctr   FaultCounters
}

// NewFaultStore wraps under with deterministic fault injection.
func NewFaultStore(under Store, cfg FaultConfig) *FaultStore {
	return &FaultStore{under: under, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counters returns a snapshot of the operation and fault counters.
func (f *FaultStore) Counters() FaultCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ctr
}

// SetConfig replaces the fault schedule atomically. It is safe to call
// while other goroutines are mid-operation on the store — the chaos
// harness flips schedules under live traffic (a healthy shard suddenly
// starts failing, a storm passes) — and the new schedule applies to every
// operation that enters after the call. Operation and fault counters keep
// running across the change; the random generator is NOT reseeded, so a
// run remains deterministic as a whole: same seed, same operation
// sequence, same SetConfig points → same faults.
func (f *FaultStore) SetConfig(cfg FaultConfig) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cfg = cfg
}

// UpdateConfig applies fn to the current schedule under the store's lock,
// for read-modify-write changes (e.g. raising MaxFaults mid-storm)
// without racing a concurrent SetConfig.
func (f *FaultStore) UpdateConfig(fn func(*FaultConfig)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	fn(&f.cfg)
}

// Config returns the schedule currently in force.
func (f *FaultStore) Config() FaultConfig {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg
}

// budgetLeft reports whether another fault may be injected (caller holds mu).
func (f *FaultStore) budgetLeft() bool {
	return f.cfg.MaxFaults == 0 || f.ctr.Total() < f.cfg.MaxFaults
}

// PageSize implements Store.
func (f *FaultStore) PageSize() int { return f.under.PageSize() }

// Allocate implements Store.
func (f *FaultStore) Allocate() (*Page, error) {
	f.mu.Lock()
	f.ctr.Allocs++
	if f.budgetLeft() && f.cfg.Alloc.fires(f.ctr.Allocs, f.rng) {
		f.ctr.AllocFaults++
		err := &InjectedError{Op: "alloc", N: f.ctr.Total(), Transient: f.cfg.Transient}
		f.mu.Unlock()
		return nil, err
	}
	f.mu.Unlock()
	return f.under.Allocate()
}

// Read implements Store, optionally stalling. Every configuration field
// is captured while the lock is held — SetConfig may swap the schedule
// between the decision and the read.
func (f *FaultStore) Read(id PageID) (*Page, error) {
	f.mu.Lock()
	f.ctr.Reads++
	fault := f.budgetLeft() && f.cfg.Read.fires(f.ctr.Reads, f.rng)
	var stall time.Duration
	if fault {
		f.ctr.ReadFaults++
		if f.cfg.Stall <= 0 {
			err := &InjectedError{Op: "read", Page: id, N: f.ctr.Total(), Transient: f.cfg.Transient}
			f.mu.Unlock()
			return nil, err
		}
		f.ctr.Stalls++
		stall = f.cfg.Stall
	}
	f.mu.Unlock()
	if stall > 0 {
		time.Sleep(stall)
	}
	return f.under.Read(id)
}

// Write implements Store, optionally tearing the page.
func (f *FaultStore) Write(p *Page) error {
	f.mu.Lock()
	f.ctr.Writes++
	fault := f.budgetLeft() && f.cfg.Write.fires(f.ctr.Writes, f.rng)
	if !fault {
		f.mu.Unlock()
		return f.under.Write(p)
	}
	f.ctr.WriteFaults++
	torn := f.cfg.TornWrites && len(p.Data) > 1
	var cut int
	if torn {
		f.ctr.TornWrites++
		cut = 1 + f.rng.Intn(len(p.Data)-1)
	}
	err := &InjectedError{Op: "write", Page: p.ID, N: f.ctr.Total(), Transient: f.cfg.Transient && !torn}
	f.mu.Unlock()
	if torn {
		// The prefix reaches the store, the suffix keeps whatever the slot
		// held before — exactly a crash mid-write.
		data := make([]byte, len(p.Data))
		if old, rerr := f.under.Read(p.ID); rerr == nil {
			copy(data, old.Data)
		}
		copy(data[:cut], p.Data[:cut])
		// Best effort: if even the torn write fails, the original error
		// still describes the situation.
		//mobidxlint:allow errdrop -- torn-write injection is the point; the injected error is already returned
		_ = f.under.Write(&Page{ID: p.ID, Data: data})
	}
	return err
}

// Free implements Store.
func (f *FaultStore) Free(id PageID) error {
	f.mu.Lock()
	f.ctr.Frees++
	if f.budgetLeft() && f.cfg.Free.fires(f.ctr.Frees, f.rng) {
		f.ctr.FreeFaults++
		err := &InjectedError{Op: "free", Page: id, N: f.ctr.Total(), Transient: f.cfg.Transient}
		f.mu.Unlock()
		return err
	}
	f.mu.Unlock()
	return f.under.Free(id)
}

// Stats implements Store, reporting the underlying store's traffic.
func (f *FaultStore) Stats() Stats { return f.under.Stats() }

// PagesInUse implements Store.
func (f *FaultStore) PagesInUse() int { return f.under.PagesInUse() }

// Sync forwards to the underlying store's durability point, if any. Faults
// are not injected on Sync — per-operation injection already covers the
// write path.
func (f *FaultStore) Sync() error {
	if s, ok := f.under.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Begin forwards Batcher so batched mutations keep their atomicity when a
// FaultStore sits between an index and a WALStore (the serving-path fault
// position: injected faults hit the index's reads and writes while the
// batch protocol underneath stays intact). Batch control operations are
// never faulted — injection models data-path failures, and a faulted
// Begin would make every composed workload die before doing anything.
func (f *FaultStore) Begin() error {
	if b, ok := f.under.(Batcher); ok {
		return b.Begin()
	}
	return nil
}

// Commit forwards Batcher.
func (f *FaultStore) Commit() error {
	if b, ok := f.under.(Batcher); ok {
		return b.Commit()
	}
	return nil
}

// Rollback forwards Batcher.
func (f *FaultStore) Rollback() error {
	if b, ok := f.under.(Batcher); ok {
		return b.Rollback()
	}
	return nil
}

// Adopt forwards Adopter so WAL recovery works through a FaultStore.
func (f *FaultStore) Adopt(id PageID) error {
	a, ok := f.under.(Adopter)
	if !ok {
		return fmt.Errorf("pager: %T does not support adopt", f.under)
	}
	return a.Adopt(id)
}

// Disown forwards Adopter.
func (f *FaultStore) Disown(id PageID) error {
	a, ok := f.under.(Adopter)
	if !ok {
		return fmt.Errorf("pager: %T does not support disown", f.under)
	}
	return a.Disown(id)
}
