// Package pager stands in for the real one: the pagebufrelease pass
// pairs the pager's unexported frame-chunk pool the way it pairs
// core.GetScratch, and only a package of this name can call it.
package pager

type logChunk struct{ B []byte }

func getLogChunk() *logChunk { return &logChunk{} }

func (c *logChunk) Release() {}

func deferred(appendTo func([]byte) error) error {
	chunk := getLogChunk()
	defer chunk.Release()
	buf := append(chunk.B[:0], 1)
	return appendTo(buf)
}

func leakOnError(appendTo func([]byte) error) error {
	chunk := getLogChunk()
	if err := appendTo(chunk.B); err != nil {
		return err
	}
	chunk.Release()
	return nil
}
