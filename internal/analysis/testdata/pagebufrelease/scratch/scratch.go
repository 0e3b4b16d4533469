// Package core stands in for the real one: the pagebufrelease pass pairs
// a query's pooled scratch (GetScratch/Release), and the scratch's own
// methods keep it tracked.
package core

type Scratch struct{ merged []uint64 }

func GetScratch() *Scratch { return &Scratch{} }

func (s *Scratch) Release() {}

func (s *Scratch) RunPiecesCtx(pieces []func() error) ([][]uint64, error) { return nil, nil }

func (s *Scratch) Merge(buckets [][]uint64) []uint64 { return s.merged }

func clone(ids []uint64) []uint64 { return append([]uint64(nil), ids...) }

func deferred(pieces []func() error) ([]uint64, error) {
	s := GetScratch()
	defer s.Release()
	buckets, err := s.RunPiecesCtx(pieces)
	if err != nil {
		return nil, err
	}
	return clone(s.Merge(buckets)), nil
}

func leakOnError(pieces []func() error) ([]uint64, error) {
	s := GetScratch()
	buckets, err := s.RunPiecesCtx(pieces)
	if err != nil {
		return nil, err
	}
	out := clone(s.Merge(buckets))
	s.Release()
	return out, nil
}
