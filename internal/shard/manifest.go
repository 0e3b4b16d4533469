package shard

import (
	"errors"
	"fmt"
	"math"

	"mobidx/internal/pager"
)

// The cluster manifest is the single authority on topology: which store
// serves which band, under which epoch, and whether a migration is in
// flight. It lives in its own tiny WAL-backed media ("manifest") as a blob
// pager.RecordChain, rewritten in one atomic batch per change — so a crash at any instant recovers to
// exactly one manifest, and therefore exactly one topology: the old one
// or the new one, never a mix. The epoch increments only at a migration
// flip, giving tests a monotonic witness that no intermediate topology
// was ever published.

const manMagic = "MOBIDXMF"

const manVersion = 1

// Migration states. A migration is a monotone three-step record:
// none → prepared (receiver store allocated, nothing published) →
// flipped (new topology published, source not yet trimmed) → none.
const (
	migNone = iota
	migPrepared
	migFlipped
)

// bandEntry maps one band to its serving store. Hi is the band's upper
// bound; the entries partition [0, YMax] in ascending order, so the cut
// list of the equivalent Partitioner is every Hi but the last.
type bandEntry struct {
	Store int
	Hi    float64
}

// migRecord is the in-flight migration, if any.
type migRecord struct {
	State    int     // migNone / migPrepared / migFlipped
	Band     int     // band being split (index in the PRE-flip topology)
	Cut      float64 // split position, strictly inside the band
	NewStore int     // store id allocated for the receiver
}

// manifest is the durable cluster topology record.
type manifest struct {
	Epoch     uint64 // bumps exactly once per completed flip
	NextStore int    // store-id allocator; ids are never reused
	Bands     []bandEntry
	Mig       migRecord
}

func encodeManifest(m manifest) []byte {
	var e encoder
	e.u32(manVersion)
	e.u64(m.Epoch)
	e.u32(uint32(m.NextStore))
	e.u32(uint32(len(m.Bands)))
	for _, b := range m.Bands {
		e.u32(uint32(b.Store))
		e.f64(b.Hi)
	}
	e.u32(uint32(m.Mig.State))
	e.u32(uint32(m.Mig.Band))
	e.f64(m.Mig.Cut)
	e.u32(uint32(m.Mig.NewStore))
	return e.buf
}

func decodeManifest(buf []byte) (manifest, error) {
	var m manifest
	corrupt := func(what string) (manifest, error) {
		return manifest{}, fmt.Errorf("shard: manifest: %s: %w", what, pager.ErrPageCorrupt)
	}
	d := decoder{buf: buf}
	if ver := d.u32(); d.short || ver != manVersion {
		return corrupt(fmt.Sprintf("version %d", ver))
	}
	m.Epoch, m.NextStore = d.u64(), int(d.u32())
	nBands := d.u32()
	if d.short || nBands == 0 || nBands > 1<<20 {
		return corrupt("header")
	}
	prev := math.Inf(-1)
	for i := uint32(0); i < nBands; i++ {
		b := bandEntry{Store: int(d.u32()), Hi: d.f64()}
		if d.short {
			return corrupt(fmt.Sprintf("band %d", i))
		}
		if b.Hi <= prev {
			return corrupt(fmt.Sprintf("band %d bound %v out of order", i, b.Hi))
		}
		prev = b.Hi
		m.Bands = append(m.Bands, b)
	}
	m.Mig = migRecord{State: int(d.u32()), Band: int(d.u32()), Cut: d.f64(), NewStore: int(d.u32())}
	if d.short || m.Mig.State > migFlipped {
		return corrupt("migration record")
	}
	if !d.done() {
		return corrupt("trailing bytes")
	}
	return m, nil
}

// partitionerOf derives the Partitioner equivalent to the manifest's band
// table.
func (m manifest) partitionerOf() (*Partitioner, error) {
	yMax := m.Bands[len(m.Bands)-1].Hi
	cuts := make([]float64, 0, len(m.Bands)-1)
	for _, b := range m.Bands[:len(m.Bands)-1] {
		cuts = append(cuts, b.Hi)
	}
	return NewPartitionerCuts(yMax, cuts)
}

// manifestStore is the manifest's WAL-backed home: a record chain inside
// its own store, rewritten as one atomic batch per change.
type manifestStore struct {
	wal *pager.WALStore
	ch  *pager.RecordChain
}

// openManifestStore opens (or initializes) the manifest media and loads
// the current manifest. init is called to produce the first manifest when
// the media is fresh; it is not called on reopen.
func openManifestStore(media Media, init func() (manifest, error)) (*manifestStore, manifest, error) {
	wal, err := pager.OpenWALStore(media.Base, media.Log, pager.WALConfig{})
	if err != nil {
		return nil, manifest{}, fmt.Errorf("shard: manifest wal: %w", err)
	}
	fail := func(err error) (*manifestStore, manifest, error) {
		return nil, manifest{}, errors.Join(err, wal.Close())
	}
	ch, err := pager.FindRecordChain(wal, manMagic, 1)
	if err == nil {
		payload, err := ch.Bytes()
		if err != nil {
			return fail(fmt.Errorf("shard: manifest read: %w", err))
		}
		m, err := decodeManifest(payload)
		if err != nil {
			return fail(err)
		}
		return &manifestStore{wal: wal, ch: ch}, m, nil
	}
	if !errors.Is(err, pager.ErrChainNotFound) {
		return fail(fmt.Errorf("shard: manifest locate: %w", err))
	}
	m, err := init()
	if err != nil {
		return fail(err)
	}
	ms := &manifestStore{wal: wal}
	err = pager.RunBatch(wal, func() (err error) {
		if ms.ch, err = pager.InitRecordChain(wal, manMagic, 1); err != nil {
			return err
		}
		return ms.ch.Rewrite(encodeManifest(m))
	})
	if err != nil {
		return fail(fmt.Errorf("shard: manifest init: %w", err))
	}
	return ms, m, nil
}

// save atomically replaces the durable manifest. On return the new
// manifest is committed and synced — the next reboot sees it.
func (s *manifestStore) save(m manifest) error {
	return pager.RunBatch(s.wal, func() error {
		return s.ch.Rewrite(encodeManifest(m))
	})
}

func (s *manifestStore) close() error { return s.wal.Close() }
