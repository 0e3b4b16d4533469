package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"mobidx/internal/pager"
)

// Media is one durable unit: a base page store plus its write-ahead log.
// Every shard owns one, and so does the cluster manifest.
type Media struct {
	Base pager.Store
	Log  pager.LogFile
}

// Env names and provisions durable media. OpenMedia creates fresh media
// the first time a name is seen and reopens the surviving bytes on every
// later call — which is exactly a reboot, so Cluster.Open recovers
// whatever the environment preserved. DropMedia irrevocably deletes a
// name (retired migration sources); dropping an unknown name is a no-op.
type Env interface {
	OpenMedia(name string) (Media, error)
	DropMedia(name string) error
}

// MemEnv is the in-memory Env: media survive as long as the value does,
// so abandoning the shards built on them and calling Cluster.Open again
// simulates a process crash with a durable disk. Safe for concurrent use.
type MemEnv struct {
	pageSize int

	mu    sync.Mutex
	media map[string]Media
}

// NewMemEnv builds an in-memory environment provisioning stores with the
// given page size (0 selects pager.DefaultPageSize).
func NewMemEnv(pageSize int) *MemEnv {
	if pageSize <= 0 {
		pageSize = pager.DefaultPageSize
	}
	return &MemEnv{pageSize: pageSize, media: make(map[string]Media)}
}

// OpenMedia implements Env.
func (e *MemEnv) OpenMedia(name string) (Media, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if m, ok := e.media[name]; ok {
		return m, nil
	}
	m := Media{Base: pager.NewMemStore(e.pageSize), Log: pager.NewMemLog()}
	e.media[name] = m
	return m, nil
}

// DropMedia implements Env.
func (e *MemEnv) DropMedia(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.media, name)
	return nil
}

// DirEnv is the file-backed Env: media named n live at dir/n.pages and
// dir/n.log. Reopening after a real process crash recovers whatever the
// filesystem made durable.
type DirEnv struct {
	dir      string
	pageSize int
}

// NewDirEnv builds a file-backed environment rooted at dir (created if
// absent); pageSize applies to newly created stores only (0 selects
// pager.DefaultPageSize).
func NewDirEnv(dir string, pageSize int) (*DirEnv, error) {
	if pageSize <= 0 {
		pageSize = pager.DefaultPageSize
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: env dir: %w", err)
	}
	return &DirEnv{dir: dir, pageSize: pageSize}, nil
}

func (e *DirEnv) paths(name string) (pages, log string) {
	return filepath.Join(e.dir, name+".pages"), filepath.Join(e.dir, name+".log")
}

// OpenMedia implements Env: the pages file is opened, or created, by
// pager.OpenFileStoreOn, which also takes a file a crash left shorter
// than one page for the unfinished creation it is.
func (e *DirEnv) OpenMedia(name string) (Media, error) {
	pagesPath, logPath := e.paths(name)
	f, err := os.OpenFile(pagesPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return Media{}, fmt.Errorf("shard: env open %s: %w", pagesPath, err)
	}
	base, err := pager.OpenFileStoreOn(f, e.pageSize)
	if err != nil {
		return Media{}, errors.Join(fmt.Errorf("shard: env open %s: %w", pagesPath, err), f.Close())
	}
	log, err := pager.OpenFileLog(logPath)
	if err != nil {
		return Media{}, errors.Join(err, base.Close())
	}
	return Media{Base: base, Log: log}, nil
}

// DropMedia implements Env.
func (e *DirEnv) DropMedia(name string) error {
	pagesPath, logPath := e.paths(name)
	var errs []error
	for _, p := range []string{pagesPath, logPath} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// shardMediaName is the stable name of a shard store's media. Store ids
// are allocated by the manifest and never reused, so a retired source's
// media can be dropped without racing a younger shard.
func shardMediaName(storeID int) string { return fmt.Sprintf("shard-%d", storeID) }

// manifestMediaName is the cluster manifest's media name.
const manifestMediaName = "manifest"
