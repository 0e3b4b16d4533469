package pager

import (
	"sync"
	"testing"
	"time"
)

// TestFaultStoreConfigRace is the race-gate regression for concurrent
// schedule mutation: the chaos harness drives shards from many goroutines
// while flipping fault schedules on and off (storms arriving and passing),
// so SetConfig/UpdateConfig/Config must be safe against in-flight
// operations. Run under -race this catches any configuration field read
// outside the store's lock.
func TestFaultStoreConfigRace(t *testing.T) {
	base := NewMemStore(128)
	fs := NewFaultStore(base, FaultConfig{Seed: 7})
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	id := p.ID

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Errors are expected while a faulting schedule is live;
				// the property under test is memory safety, not success.
				// Each write hands over a slice of its own: the page read
				// (a private copy), else a fresh one.
				data := make([]byte, 128)
				if pg, err := fs.Read(id); err == nil {
					data = pg.Data
				}
				//mobidxlint:allow errdrop -- injected faults are the point of this stress loop
				_ = fs.Write(&Page{ID: id, Data: data})
			}
		}()
	}
	schedules := []FaultConfig{
		{Seed: 7},
		{Seed: 7, Read: OpFaults{FailEvery: 2}, Transient: true},
		{Seed: 7, Write: OpFaults{FailProb: 0.5}, TornWrites: true},
		{Seed: 7, Read: OpFaults{FailEvery: 2}, Stall: time.Microsecond},
	}
	deadline := time.Now().Add(150 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		fs.SetConfig(schedules[i%len(schedules)])
		fs.UpdateConfig(func(c *FaultConfig) { c.MaxFaults = int64(1 + i%8) })
		_ = fs.Config()
		_ = fs.Counters()
	}
	close(stop)
	wg.Wait()
}

// TestFaultStoreStall checks the straggler mode: a firing read fault
// sleeps and then succeeds with intact data, and is counted as a stall,
// not an error or corruption.
func TestFaultStoreStall(t *testing.T) {
	base := NewMemStore(64)
	p, err := base.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Data {
		p.Data[i] = byte(i)
	}
	if err := base.Write(p); err != nil {
		t.Fatal(err)
	}
	fs := NewFaultStore(base, FaultConfig{
		Seed:  1,
		Read:  OpFaults{FailEvery: 2},
		Stall: 5 * time.Millisecond,
	})
	start := time.Now()
	var stalledReads int
	for i := 0; i < 4; i++ {
		got, err := fs.Read(p.ID)
		if err != nil {
			t.Fatalf("stalled read %d returned error %v, want success", i, err)
		}
		for j := range got.Data {
			if got.Data[j] != byte(j) {
				t.Fatalf("stalled read corrupted byte %d", j)
			}
		}
		stalledReads++
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("4 reads with every-2nd stalling 5ms took %v, want >= 10ms", elapsed)
	}
	ctr := fs.Counters()
	if ctr.Stalls != 2 || ctr.ReadFaults != 2 {
		t.Fatalf("counters = %+v, want 2 stalls among 2 read faults", ctr)
	}
}

// TestFaultStoreSetConfigMidRun pins the mid-run schedule flip the chaos
// harness relies on: a store loads clean, is switched to always-fail, and
// switched back — each phase behaving exactly per the schedule in force.
func TestFaultStoreSetConfigMidRun(t *testing.T) {
	base := NewMemStore(64)
	fs := NewFaultStore(base, FaultConfig{Seed: 3})
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Read(p.ID); err != nil {
		t.Fatalf("clean phase read failed: %v", err)
	}
	fs.SetConfig(FaultConfig{Seed: 3, Read: OpFaults{FailEvery: 1}})
	if _, err := fs.Read(p.ID); err == nil {
		t.Fatal("always-fail phase read succeeded")
	}
	fs.SetConfig(FaultConfig{Seed: 3})
	if _, err := fs.Read(p.ID); err != nil {
		t.Fatalf("recovered phase read failed: %v", err)
	}
}
