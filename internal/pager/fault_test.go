package pager

import (
	"bytes"
	"errors"
	"testing"
)

func TestFaultStoreFailEvery(t *testing.T) {
	fs := NewFaultStore(NewMemStore(128), FaultConfig{Write: OpFaults{FailEvery: 3}})
	p, err := fs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	var failures int
	for i := 0; i < 9; i++ {
		if err := fs.Write(p); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("write %d: error %v does not match ErrInjected", i, err)
			}
			if IsTransient(err) {
				t.Fatalf("write %d: fault should be permanent by default", i)
			}
			failures++
		}
	}
	if failures != 3 {
		t.Fatalf("FailEvery=3 over 9 writes: %d failures, want 3", failures)
	}
	ctr := fs.Counters()
	if ctr.Writes != 9 || ctr.WriteFaults != 3 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestFaultStoreDeterministic(t *testing.T) {
	run := func() []bool {
		fs := NewFaultStore(NewMemStore(128), FaultConfig{Seed: 42, Read: OpFaults{FailProb: 0.5}})
		p, _ := fs.Allocate()
		if err := fs.Write(p); err != nil {
			t.Fatal(err)
		}
		var outcomes []bool
		for i := 0; i < 64; i++ {
			_, err := fs.Read(p.ID)
			outcomes = append(outcomes, err != nil)
		}
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
}

func TestFaultStoreMaxFaults(t *testing.T) {
	fs := NewFaultStore(NewMemStore(128), FaultConfig{
		Write:     OpFaults{FailEvery: 1},
		MaxFaults: 2,
	})
	p, _ := fs.Allocate()
	var failures int
	for i := 0; i < 10; i++ {
		if err := fs.Write(p); err != nil {
			failures++
		}
	}
	if failures != 2 {
		t.Fatalf("MaxFaults=2: %d failures, want 2", failures)
	}
}

func TestFaultStoreTransientMarking(t *testing.T) {
	fs := NewFaultStore(NewMemStore(128), FaultConfig{
		Alloc:     OpFaults{FailEvery: 1},
		Transient: true,
	})
	_, err := fs.Allocate()
	if err == nil || !IsTransient(err) || !errors.Is(err, ErrInjected) {
		t.Fatalf("transient alloc fault: got %v", err)
	}
}

func TestFaultStoreTornWrite(t *testing.T) {
	under := NewMemStore(128)
	fs := NewFaultStore(under, FaultConfig{Seed: 3, Write: OpFaults{FailEvery: 2}, TornWrites: true})
	p, _ := fs.Allocate()
	for i := range p.Data {
		p.Data[i] = 0x11
	}
	if err := fs.Write(p); err != nil { // write 1: clean
		t.Fatal(err)
	}
	p = &Page{ID: p.ID, Data: bytes.Repeat([]byte{0x22}, len(p.Data))}
	err := fs.Write(p) // write 2: torn
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("torn write must still error, got %v", err)
	}
	if IsTransient(err) {
		t.Fatal("a torn write is never transient")
	}
	got, rerr := under.Read(p.ID)
	if rerr != nil {
		t.Fatal(rerr)
	}
	var newB, oldB int
	for _, x := range got.Data {
		switch x {
		case 0x22:
			newB++
		case 0x11:
			oldB++
		default:
			t.Fatalf("unexpected byte %#x after torn write", x)
		}
	}
	if newB == 0 || oldB == 0 {
		t.Fatalf("torn write should mix old and new data (new=%d old=%d)", newB, oldB)
	}
	if fs.Counters().TornWrites != 1 {
		t.Fatalf("counters = %+v", fs.Counters())
	}
}
