// Package bad exercises every lockorder hazard class: an order cycle
// across two types, a transitive self-acquisition, a direct nested
// same-key acquire, and locks held across each blocking-operation kind.
package bad

import (
	"os"
	"sync"
	"time"
)

type A struct {
	mu sync.Mutex
	b  *B
}

type B struct {
	mu sync.Mutex
	a  *A
}

// One establishes A.mu -> B.mu (Two acquires B.mu while A.mu is held).
func (a *A) One() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.b.Two()
}

func (b *B) Two() {
	b.mu.Lock()
	defer b.mu.Unlock()
}

// Back establishes B.mu -> A.mu: together with One, an order cycle.
func (b *B) Back() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.a.Direct()
}

func (a *A) Direct() {
	a.mu.Lock()
	defer a.mu.Unlock()
}

// Re acquires A.mu transitively (via helper) while A.mu is held.
func (a *A) Re() {
	a.mu.Lock()
	a.helper()
	a.mu.Unlock()
}

func (a *A) helper() {
	a.mu.Lock()
	a.mu.Unlock()
}

// Nested acquires the same lock key directly while it is held.
func Nested(x, y *A) {
	x.mu.Lock()
	y.mu.Lock()
	y.mu.Unlock()
	x.mu.Unlock()
}

type F struct {
	mu sync.Mutex
	f  *os.File
}

// Flush holds F.mu across an fsync.
func (f *F) Flush() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.f.Sync()
}

// Sleepy holds F.mu across time.Sleep.
func (f *F) Sleepy() {
	f.mu.Lock()
	time.Sleep(time.Millisecond)
	f.mu.Unlock()
}

// Send holds F.mu across a bare channel send.
func (f *F) Send(ch chan int) {
	f.mu.Lock()
	ch <- 1
	f.mu.Unlock()
}

// Recv holds F.mu across a bare channel receive.
func (f *F) Recv(ch chan int) int {
	f.mu.Lock()
	v := <-ch
	f.mu.Unlock()
	return v
}

// Sel holds F.mu across a select with no default clause.
func (f *F) Sel(ch chan int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	select {
	case <-ch:
	case <-time.After(time.Millisecond):
	}
}

// Indirect holds F.mu across a call to Flush, which may block.
func (f *F) Indirect(other *F) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return other.flushNoLock()
}

func (f *F) flushNoLock() error {
	return f.f.Sync()
}

// Server takes its writer latch before its serving latch in Apply; Seed
// takes them the other way round.
type Server struct {
	wmu sync.Mutex
	mu  sync.RWMutex
}

func (s *Server) Apply() {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

func (s *Server) Seed() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wmu.Lock()
	s.wmu.Unlock()
}

// Front takes its feed latch before the server's latches in Apply; Feed
// takes it under the server's serving latch.
type Front struct {
	feedMu sync.RWMutex
	srv    *Server
}

func (f *Front) Apply() {
	f.feedMu.Lock()
	defer f.feedMu.Unlock()
	f.srv.Apply()
}

func (s *Server) Feed(f *Front) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.feedMu.Lock()
	f.feedMu.Unlock()
}

type logSyncer interface{ SyncLog() error }

// Shard holds its serving latch, besides its writer latch, across a log
// sync: the writer latch's exemption does not cover the serving latch.
type Shard struct {
	wmu sync.Mutex
	mu  sync.RWMutex
	wal logSyncer
}

func (s *Shard) Write() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wal.SyncLog()
}
