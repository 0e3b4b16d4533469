package crashtest

import (
	"slices"
	"testing"

	"mobidx/internal/pager"
)

// writeTrace records the page ids a FileStore is asked to write, in order.
type writeTrace struct {
	*pager.FileStore
	ids []pager.PageID
}

func (r *writeTrace) Write(p *pager.Page) error {
	r.ids = append(r.ids, p.ID)
	return r.FileStore.Write(p)
}

// A checkpoint writes the committed table to the base in page-id order,
// not in map order: two runs of one workload issue the same base writes in
// the same sequence, so crash point k of a sweep names the same page on
// every run and a failing point can be replayed.
func TestCheckpointWriteOrderRepeats(t *testing.T) {
	const ps, pages, rounds = 128, 64, 3
	run := func() []pager.PageID {
		media := NewMedia(KeepAll, 0)
		fs, err := pager.OpenFileStoreOn(NewFile(media), ps)
		if err != nil {
			t.Fatal(err)
		}
		log, err := pager.OpenFileLogOn(NewFile(media))
		if err != nil {
			t.Fatal(err)
		}
		base := &writeTrace{FileStore: fs}
		w, err := pager.OpenWALStore(base, log, pager.WALConfig{})
		if err != nil {
			t.Fatal(err)
		}
		var ids []pager.PageID
		for r := 0; r < rounds; r++ {
			err := pager.RunBatch(w, func() error {
				for i := 0; i < pages; i++ {
					p, err := w.Allocate()
					if err != nil {
						return err
					}
					ids = append(ids, p.ID)
				}
				// Stage in an order that is neither ascending nor the
				// allocation order.
				for i := range ids {
					id := ids[(i*37)%len(ids)]
					data := make([]byte, ps)
					data[0], data[1] = byte(id), byte(r)
					if err := w.Write(&pager.Page{ID: id, Data: data}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			mark := len(base.ids)
			if err := w.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			// The table's pages ascending, then the watermark page.
			ckpt := base.ids[mark:]
			if len(ckpt) != len(ids)+1 || ckpt[len(ckpt)-1] != w.MetaPage() || !slices.IsSorted(ckpt[:len(ckpt)-1]) {
				t.Fatalf("checkpoint %d wrote pages %v, want %d data pages ascending then the meta page", r, ckpt, len(ids))
			}
		}
		return base.ids
	}
	first, second := run(), run()
	if !slices.Equal(first, second) {
		t.Fatalf("two runs of one workload wrote the base in different orders:\n%v\n%v", first, second)
	}
}
