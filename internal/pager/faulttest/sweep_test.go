package faulttest

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mobidx/internal/pager"
	"mobidx/internal/pager/crashtest"
)

// baselines computes each workload's ground-truth fingerprint on a clean
// MemStore. A workload that cannot even run clean is a test bug.
func baselines(t *testing.T) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, w := range Workloads() {
		res, err, pan := RunGuarded(w, pager.NewMemStore(PageSize))
		if pan != nil {
			t.Fatalf("%s: clean run panicked: %v", w.Name, pan)
		}
		if err != nil {
			t.Fatalf("%s: clean run failed: %v", w.Name, err)
		}
		if res == "" {
			t.Fatalf("%s: clean run produced an empty fingerprint", w.Name)
		}
		out[w.Name] = res
	}
	return out
}

// TestFaultSweepPermanent fails each operation class at several rates with
// permanent errors. Required: no panic ever, and a run that happens to
// dodge every fault still answers correctly.
func TestFaultSweepPermanent(t *testing.T) {
	base := baselines(t)
	type scenario struct {
		name string
		cfg  pager.FaultConfig
	}
	var scenarios []scenario
	classes := []struct {
		name string
		set  func(*pager.FaultConfig, pager.OpFaults)
	}{
		{"read", func(c *pager.FaultConfig, f pager.OpFaults) { c.Read = f }},
		{"write", func(c *pager.FaultConfig, f pager.OpFaults) { c.Write = f }},
		{"alloc", func(c *pager.FaultConfig, f pager.OpFaults) { c.Alloc = f }},
		{"free", func(c *pager.FaultConfig, f pager.OpFaults) { c.Free = f }},
	}
	for _, cl := range classes {
		for _, every := range []int64{2, 7, 31} {
			cfg := pager.FaultConfig{Seed: 1000 + every}
			cl.set(&cfg, pager.OpFaults{FailEvery: every})
			scenarios = append(scenarios, scenario{
				name: fmt.Sprintf("%s/every=%d", cl.name, every),
				cfg:  cfg,
			})
		}
		cfg := pager.FaultConfig{Seed: 99}
		cl.set(&cfg, pager.OpFaults{FailProb: 0.1})
		scenarios = append(scenarios, scenario{name: cl.name + "/prob=0.1", cfg: cfg})
	}
	for _, w := range Workloads() {
		for _, sc := range scenarios {
			t.Run(w.Name+"/"+sc.name, func(t *testing.T) {
				store := pager.NewFaultStore(pager.NewMemStore(PageSize), sc.cfg)
				res, err, pan := RunGuarded(w, store)
				if pan != nil {
					t.Fatalf("panicked under injected faults: %v", pan)
				}
				if err == nil {
					if store.Counters().Total() != 0 {
						t.Fatal("faults were injected but no error surfaced")
					}
					if res != base[w.Name] {
						t.Fatal("fault-free run diverged from baseline")
					}
					return
				}
				if !errors.Is(err, pager.ErrInjected) && !errors.Is(err, pager.ErrPageNotFound) {
					t.Fatalf("error escaped the storage taxonomy: %v", err)
				}
			})
		}
	}
}

// damagedFile is a pages file whose media damages pages silently: every
// flipEvery-th read returns one flipped bit among the bytes it read, and
// every tearEvery-th write lands only a prefix of its bytes yet reports
// success. It is installed under a FileStore, whose page trailers must
// turn both into ErrPageCorrupt.
type damagedFile struct {
	*crashtest.File
	mu                   sync.Mutex
	rng                  *rand.Rand
	flipEvery, tearEvery int
	reads, writes        int
	flips, tears         int
}

func newDamagedFile(seed int64) *damagedFile {
	return &damagedFile{File: crashtest.NewFile(crashtest.NewMedia(crashtest.KeepAll, 0)), rng: rand.New(rand.NewSource(seed))}
}

func (d *damagedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := d.File.ReadAt(p, off)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads++
	if d.flipEvery > 0 && d.reads%d.flipEvery == 0 && n > 0 {
		bit := d.rng.Intn(8 * n)
		p[bit/8] ^= 1 << (bit % 8)
		d.flips++
	}
	return n, err
}

func (d *damagedFile) WriteAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	d.writes++
	cut := len(p)
	if d.tearEvery > 0 && d.writes%d.tearEvery == 0 && len(p) > 1 {
		cut = 1 + d.rng.Intn(len(p)-1)
		d.tears++
	}
	d.mu.Unlock()
	if _, err := d.File.WriteAt(p[:cut], off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// damage starts the schedule, once the store over d exists.
func (d *damagedFile) damage(flipEvery, tearEvery int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.flipEvery, d.tearEvery = flipEvery, tearEvery
}

// injected returns the number of flips and tears so far.
func (d *damagedFile) injected() (flips, tears int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flips, d.tears
}

// TestFaultSweepSilentCorruption runs every workload on a FileStore whose
// file flips bits on read or tears pages on write, and reports success
// either way: every failure the workload sees must be a detected, typed
// ErrPageCorrupt — never garbage decoded into wrong answers — and a run
// that ends without error must answer exactly as the baseline.
func TestFaultSweepSilentCorruption(t *testing.T) {
	base := baselines(t)
	scenarios := []struct {
		name             string
		flipEvery, tearN int
	}{
		{"bitflip/every=5", 5, 0},
		{"bitflip/every=23", 23, 0},
		{"torn/every=5", 0, 5},
		{"torn/every=23", 0, 23},
	}
	for _, w := range Workloads() {
		for i, sc := range scenarios {
			t.Run(w.Name+"/"+sc.name, func(t *testing.T) {
				file := newDamagedFile(int64(i + 1))
				fs, err := pager.OpenFileStoreOn(file, PageSize)
				if err != nil {
					t.Fatal(err)
				}
				file.damage(sc.flipEvery, sc.tearN)
				res, err, pan := RunGuarded(w, fs)
				if pan != nil {
					t.Fatalf("panicked under silent corruption: %v", pan)
				}
				flips, _ := file.injected()
				if err == nil {
					if flips != 0 {
						t.Fatalf("%d flipped reads, none detected", flips)
					}
					if res != base[w.Name] {
						t.Fatal("a run that met torn pages and reported no error diverged from the baseline")
					}
					return
				}
				if !errors.Is(err, pager.ErrPageCorrupt) {
					t.Fatalf("silent corruption produced an untyped failure: %v", err)
				}
			})
		}
	}
}

// retrying absorbs a FaultStore's transient faults the way a caller that
// retries would: each operation is tried up to 16 times while it fails
// with IsTransient. The quiescence sweeps use it to check the structures
// above a store whose operations fail and then succeed.
type retrying struct{ pager.Store }

func retry(op func() error) error {
	err := op()
	for n := 1; n < 16 && pager.IsTransient(err); n++ {
		err = op()
	}
	return err
}

func (r retrying) Allocate() (p *pager.Page, err error) {
	err = retry(func() (err error) { p, err = r.Store.Allocate(); return err })
	return p, err
}

func (r retrying) Read(id pager.PageID) (p *pager.Page, err error) {
	err = retry(func() (err error) { p, err = r.Store.Read(id); return err })
	return p, err
}

func (r retrying) Write(p *pager.Page) error { return retry(func() error { return r.Store.Write(p) }) }

func (r retrying) Free(id pager.PageID) error { return retry(func() error { return r.Store.Free(id) }) }

// TestFaultSweepQuiescence injects transient faults in every class at once
// and absorbs them by retrying: the workload must complete and answer
// every query exactly as the fault-free baseline does.
func TestFaultSweepQuiescence(t *testing.T) {
	base := baselines(t)
	for _, rate := range []float64{0.05, 0.2} {
		for _, w := range Workloads() {
			t.Run(fmt.Sprintf("%s/rate=%v", w.Name, rate), func(t *testing.T) {
				faulty := pager.NewFaultStore(pager.NewMemStore(PageSize), pager.FaultConfig{
					Seed:      31337,
					Read:      pager.OpFaults{FailProb: rate},
					Write:     pager.OpFaults{FailProb: rate},
					Alloc:     pager.OpFaults{FailProb: rate},
					Free:      pager.OpFaults{FailProb: rate},
					Transient: true,
				})
				res, err, pan := RunGuarded(w, retrying{faulty})
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
			})
		}
	}
}

// TestFaultSweepFullStack runs every workload on the stack the cluster
// serves — a Buffered pool over a WALStore over a FileStore and a FileLog,
// checkpointing as it goes — twice. On undamaged media the run must answer
// exactly as the baseline, so pages that went through checkpoints and came
// back on pool and table misses decode intact. With the pages file flipping
// a bit in every seventh read, every flipped read must end the run with
// ErrPageCorrupt, and a run that meets none must answer exactly.
func TestFaultSweepFullStack(t *testing.T) {
	base := baselines(t)
	var cleanReads int64 // FileStore reads behind the exact clean runs
	detected := 0        // damaged runs that ended in ErrPageCorrupt
	for i, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			for _, flipEvery := range []int{0, 7} {
				pages := newDamagedFile(int64(4242 + i))
				fs, err := pager.OpenFileStoreOn(pages, PageSize)
				if err != nil {
					t.Fatal(err)
				}
				log, err := pager.OpenFileLogOn(crashtest.NewFile(crashtest.NewMedia(crashtest.KeepAll, 0)))
				if err != nil {
					t.Fatal(err)
				}
				ws, err := pager.OpenWALStore(fs, log, pager.WALConfig{})
				if err != nil {
					t.Fatal(err)
				}
				pages.damage(flipEvery, 0)
				res, err, pan := RunGuarded(w, pager.NewBuffered(autoCheckpoint{ws, 8 * PageSize}, 4))
				if pan != nil {
					t.Fatalf("flip=%d: panicked under full stack: %v", flipEvery, pan)
				}
				flips, _ := pages.injected()
				if flipEvery == 0 {
					cleanReads += fs.Stats().Reads
				} else if err != nil {
					detected++
				}
				switch {
				case flipEvery == 0 && err != nil:
					t.Fatalf("full stack failed on undamaged media: %v", err)
				case err != nil && !errors.Is(err, pager.ErrPageCorrupt):
					t.Fatalf("flip=%d: full stack failed untyped: %v", flipEvery, err)
				case err == nil && flips != 0:
					t.Fatalf("flip=%d: %d flipped base reads, none detected", flipEvery, flips)
				case err == nil && res != base[w.Name]:
					t.Fatalf("flip=%d: full-stack results diverged from baseline", flipEvery)
				}
			}
		})
	}
	if cleanReads == 0 || detected == 0 {
		t.Fatalf("sweep is vacuous: %d FileStore reads in the clean runs, %d damaged runs detected", cleanReads, detected)
	}
}
