package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"mobidx/internal/pager"
	"mobidx/internal/shard"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder was made; Parent is the innermost span
// open when this one began (-1 for a call the benchmark issued itself) and
// Req the top-level span the call belongs to. N carries the call's size
// where it has one (bytes appended, batch nesting depth).
type span struct {
	Name   int
	Start  int64
	End    int64
	Parent int
	Req    int
	N      int64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory. It takes the parent of
// a span from a stack, which is only right while one goroutine calls into
// the stack under test — the traced run's single client with the router's
// inline executor. It is not safe for concurrent use.
type recorder struct {
	t0    time.Time
	names []string
	ids   map[string]int
	spans []span
	open  []int
}

func newRecorder() *recorder {
	// Sized for a whole traced run, so recording a span never stops to
	// copy the ones before it.
	return &recorder{t0: time.Now(), ids: make(map[string]int), spans: make([]span, 0, 1<<20)}
}

// id interns a span name.
func (r *recorder) id(name string) int {
	if id, ok := r.ids[name]; ok {
		return id
	}
	r.names = append(r.names, name)
	r.ids[name] = len(r.names) - 1
	return len(r.names) - 1
}

func (r *recorder) begin(name int) int {
	parent, req := -1, len(r.spans)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
		req = r.spans[parent].Req
	}
	r.spans = append(r.spans, span{Name: name, Parent: parent, Req: req,
		Start: time.Since(r.t0).Nanoseconds()})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

func (r *recorder) end(i int) {
	r.spans[i].End = time.Since(r.t0).Nanoseconds()
	r.open = r.open[:len(r.open)-1]
}

// childTime returns, per span, the time its direct children cover. With
// one client the children of a span never overlap, so a layer's self time
// is its span's duration minus this.
func (r *recorder) childTime() []time.Duration {
	out := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			out[s.Parent] += s.dur()
		}
	}
	return out
}

// write stores the spans as one JSON document: the name table, then one
// [name, start_ns, end_ns, parent, request, n] row per span.
func (r *recorder) write(path, workload string, seed int64) error {
	rows := make([][6]int64, len(r.spans))
	for i, s := range r.spans {
		rows[i] = [6]int64{int64(s.Name), s.Start, s.End, int64(s.Parent), int64(s.Req), s.N}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string     `json:"workload"`
		Seed     int64      `json:"seed"`
		Columns  []string   `json:"columns"`
		Names    []string   `json:"names"`
		Spans    [][6]int64 `json:"spans"`
	}{workload, seed, []string{"name", "start_ns", "end_ns", "parent", "request", "n"}, r.names, rows})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// storeProbe records a span around every call that crosses one
// pager.Store boundary and forwards the call unchanged. It forwards the
// optional capabilities of the store under it — Viewer, Batcher, Adopter,
// Syncer, Close — because dropping one silently changes the program:
// without Viewer the zero-copy read path turns into copying reads, without
// Batcher a shard's atomic batch becomes loose writes, without Adopter WAL
// recovery falls back to re-allocation, without Sync a checkpoint is not
// durable.
type storeProbe struct {
	under pager.Store
	rec   *recorder
	depth int64 // open Begin nesting; the outermost Commit carries N = 1

	read, write, alloc, free, begin, commit, rollback, sync, adopt int
}

func newStoreProbe(rec *recorder, layer string, under pager.Store) *storeProbe {
	return &storeProbe{under: under, rec: rec,
		read: rec.id(layer + ".read"), write: rec.id(layer + ".write"),
		alloc: rec.id(layer + ".alloc"), free: rec.id(layer + ".free"),
		begin: rec.id(layer + ".begin"), commit: rec.id(layer + ".commit"),
		rollback: rec.id(layer + ".rollback"), sync: rec.id(layer + ".sync"),
		adopt: rec.id(layer + ".adopt")}
}

func (p *storeProbe) PageSize() int      { return p.under.PageSize() }
func (p *storeProbe) Stats() pager.Stats { return p.under.Stats() }
func (p *storeProbe) PagesInUse() int    { return p.under.PagesInUse() }

func (p *storeProbe) Allocate() (*pager.Page, error) {
	defer p.rec.end(p.rec.begin(p.alloc))
	return p.under.Allocate()
}

func (p *storeProbe) Read(id pager.PageID) (*pager.Page, error) {
	defer p.rec.end(p.rec.begin(p.read))
	return p.under.Read(id)
}

// View implements pager.Viewer exactly as pager.ViewBytes would on the
// store below: zero-copy when it has the capability, a copying Read when
// it does not.
func (p *storeProbe) View(id pager.PageID) ([]byte, error) {
	defer p.rec.end(p.rec.begin(p.read))
	return pager.ViewBytes(p.under, id)
}

func (p *storeProbe) Write(pg *pager.Page) error {
	defer p.rec.end(p.rec.begin(p.write))
	return p.under.Write(pg)
}

func (p *storeProbe) Free(id pager.PageID) error {
	defer p.rec.end(p.rec.begin(p.free))
	return p.under.Free(id)
}

func (p *storeProbe) Begin() error {
	b, ok := p.under.(pager.Batcher)
	if !ok {
		return nil
	}
	defer p.rec.end(p.rec.begin(p.begin))
	p.depth++
	return b.Begin()
}

func (p *storeProbe) Commit() error {
	b, ok := p.under.(pager.Batcher)
	if !ok {
		return nil
	}
	i := p.rec.begin(p.commit)
	p.rec.spans[i].N = p.depth
	p.depth--
	defer p.rec.end(i)
	return b.Commit()
}

func (p *storeProbe) Rollback() error {
	b, ok := p.under.(pager.Batcher)
	if !ok {
		return nil
	}
	defer p.rec.end(p.rec.begin(p.rollback))
	p.depth = 0
	return b.Rollback()
}

func (p *storeProbe) Sync() error {
	s, ok := p.under.(pager.Syncer)
	if !ok {
		return nil
	}
	defer p.rec.end(p.rec.begin(p.sync))
	return s.Sync()
}

func (p *storeProbe) Adopt(id pager.PageID) error {
	a, ok := p.under.(pager.Adopter)
	if !ok {
		return fmt.Errorf("bench: %T does not support adopt", p.under)
	}
	defer p.rec.end(p.rec.begin(p.adopt))
	return a.Adopt(id)
}

func (p *storeProbe) Disown(id pager.PageID) error {
	a, ok := p.under.(pager.Adopter)
	if !ok {
		return fmt.Errorf("bench: %T does not support disown", p.under)
	}
	defer p.rec.end(p.rec.begin(p.adopt))
	return a.Disown(id)
}

func (p *storeProbe) Close() error {
	if c, ok := p.under.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// logProbe records a span around every pager.LogFile call and forwards it.
type logProbe struct {
	under pager.LogFile
	rec   *recorder

	readAt, size, app, truncate, sync int
}

func newLogProbe(rec *recorder, layer string, under pager.LogFile) *logProbe {
	return &logProbe{under: under, rec: rec,
		readAt: rec.id(layer + ".readat"), size: rec.id(layer + ".size"),
		app: rec.id(layer + ".append"), truncate: rec.id(layer + ".truncate"),
		sync: rec.id(layer + ".sync")}
}

func (l *logProbe) ReadAt(b []byte, off int64) (int, error) {
	defer l.rec.end(l.rec.begin(l.readAt))
	return l.under.ReadAt(b, off)
}

func (l *logProbe) Size() (int64, error) {
	defer l.rec.end(l.rec.begin(l.size))
	return l.under.Size()
}

func (l *logProbe) Append(b []byte) error {
	i := l.rec.begin(l.app)
	l.rec.spans[i].N = int64(len(b))
	defer l.rec.end(i)
	return l.under.Append(b)
}

func (l *logProbe) Truncate(size int64) error {
	defer l.rec.end(l.rec.begin(l.truncate))
	return l.under.Truncate(size)
}

func (l *logProbe) Sync() error {
	defer l.rec.end(l.rec.begin(l.sync))
	return l.under.Sync()
}

func (l *logProbe) Close() error { return l.under.Close() }

// mediaEnv is the shard.Env every deployment runs on. It delegates to the
// DirEnv under it and remembers the base stores it handed out, because a
// shard closes its WAL but leaves the base store to its owner; with a
// recorder it also wraps what OpenMedia returns in probes, which is how
// the traced run sees FileStore and FileLog traffic.
type mediaEnv struct {
	under shard.Env
	rec   *recorder // nil in the untraced run: media pass through untouched

	mu    sync.Mutex
	bases []pager.Store
}

func (e *mediaEnv) OpenMedia(name string) (shard.Media, error) {
	m, err := e.under.OpenMedia(name)
	if err != nil {
		return m, err
	}
	if e.rec != nil {
		m.Base = newStoreProbe(e.rec, "filestore", m.Base)
		m.Log = newLogProbe(e.rec, "filelog", m.Log)
	}
	e.mu.Lock()
	e.bases = append(e.bases, m.Base)
	e.mu.Unlock()
	return m, nil
}

func (e *mediaEnv) DropMedia(name string) error { return e.under.DropMedia(name) }

// closeBases closes every base store handed out since the last call.
func (e *mediaEnv) closeBases() error {
	e.mu.Lock()
	bases := e.bases
	e.bases = nil
	e.mu.Unlock()
	var first error
	for _, b := range bases {
		if c, ok := b.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
