// Package good holds locking patterns the lockorder pass must accept:
// a consistent acquisition hierarchy, blocking work done with the latch
// released, non-blocking sends under a latch, and the sync.Cond
// protocol.
package good

import (
	"os"
	"sync"
	"time"
)

type Outer struct {
	mu    sync.Mutex
	inner *Inner
}

type Inner struct {
	mu sync.Mutex
	n  int
}

// Consistent hierarchy: Outer.mu is always taken before Inner.mu,
// nowhere the reverse.
func (o *Outer) Touch() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.inner.bump()
}

func (i *Inner) bump() {
	i.mu.Lock()
	i.n++
	i.mu.Unlock()
}

type Store struct {
	mu sync.Mutex
	f  *os.File
}

// SyncOutside stages under the latch, then syncs with it released.
func (s *Store) SyncOutside() error {
	s.mu.Lock()
	f := s.f
	s.mu.Unlock()
	return f.Sync()
}

// UnlockRelock releases the latch around each blocking wait of a loop
// and retakes it after.
func (s *Store) UnlockRelock(ch chan struct{}) {
	s.mu.Lock()
	for i := 0; i < 3; i++ {
		s.mu.Unlock()
		<-ch
		s.mu.Lock()
	}
	s.mu.Unlock()
}

// NonBlockingSend offers under the latch through a select with a
// default clause — it cannot park.
func (s *Store) NonBlockingSend(ch chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case ch <- struct{}{}:
	default:
	}
}

type Waiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	done bool
}

// Wait holds exactly the cond's own lock across Cond.Wait — the
// documented protocol, not a hazard.
func (w *Waiter) Wait() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for !w.done {
		w.cond.Wait()
	}
}

// SleepUnlocked sleeps with no latch held.
func (s *Store) SleepUnlocked() {
	s.mu.Lock()
	s.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// Server is the serving shard's hierarchy: a writer latch taken before the
// serving latch, never the reverse, and the serving latch released before
// the writer's tail runs.
type Server struct {
	wmu   sync.Mutex
	mu    sync.RWMutex
	store *Gated
	n     int
}

func (s *Server) Apply() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	s.store.Commit()
	s.mu.Unlock()
	s.n++
}

func (s *Server) Query() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Gated is a store with a two-phase checkpoint: it marks itself running
// under the latch, does its I/O with the latch released, and a writer
// waits on the cond with only the cond's own latch held.
type Gated struct {
	mu      sync.Mutex
	idle    *sync.Cond
	running bool
	f       *os.File
}

func (g *Gated) Commit() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.running {
		g.idle.Wait()
	}
}

func (g *Gated) Checkpoint() error {
	g.mu.Lock()
	g.running = true
	g.mu.Unlock()
	err := g.f.Sync()
	g.mu.Lock()
	g.running = false
	g.idle.Broadcast()
	g.mu.Unlock()
	return err
}

// Front is the router above the servers: its feed latch is taken before
// any server latch — shared by writers while nothing is subscribed,
// exclusive otherwise — and never under one.
type Front struct {
	feedMu sync.RWMutex
	srv    *Server
	subs   int
}

func (f *Front) Apply() {
	f.feedMu.RLock()
	if f.subs == 0 {
		defer f.feedMu.RUnlock()
		f.srv.Apply()
		return
	}
	f.feedMu.RUnlock()
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	f.srv.Apply()
	f.subs++
}

type logSyncer interface{ SyncLog() error }

// Shard syncs its log under its writer latch alone, after releasing the
// serving latch readers take; Cluster holds its admin latch across a
// shard write. Only writers take either latch.
type Shard struct {
	wmu sync.Mutex
	mu  sync.RWMutex
	wal logSyncer
}

func (s *Shard) Write() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
	return s.wal.SyncLog()
}

type Cluster struct {
	adminMu sync.Mutex
	shard   *Shard
}

func (c *Cluster) Split() error {
	c.adminMu.Lock()
	defer c.adminMu.Unlock()
	return c.shard.Write()
}
