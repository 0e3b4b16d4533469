// Parallel query paths for the 2-dimensional methods: both Index2D
// implementations expose a QueryParallel that decomposes the query into
// independent read-only subqueries, runs them on a bounded core.Executor,
// and merges deterministically — sorted ascending by OID, deduplicated —
// so the output is byte-identical for every worker count. A one-worker
// executor is the sequential reference implementation the differential
// tests compare against.
package twod

import (
	"context"

	"mobidx/internal/core"
	"mobidx/internal/dual"
)

// QueryParallel answers q by running the four quadrant scans of every live
// generation concurrently on exec; ctx stops the fan-out between scans.
// The returned OIDs are sorted ascending and deduplicated; the slice is
// identical for every worker count. Subqueries only read index pages, so
// QueryParallel may run concurrently with other queries but not with
// Insert/Delete.
func (k *KD4) QueryParallel(ctx context.Context, exec *core.Executor, q MOR2Query) ([]dual.OID, error) {
	var subs []func(emit func(dual.OID)) error
	for _, g := range k.rot.Live() {
		subs = append(subs, g.subqueries(q)...)
	}
	return core.RunSubqueriesCtx(ctx, exec, subs)
}

// QueryParallel answers q by running the two per-axis 1-dimensional MOR
// queries — themselves decomposed into their Lemma 1 pieces — concurrently
// on one shared worker pool (ctx stops the fan-out between pieces), then
// intersecting the per-axis answers by object id and filtering with the
// exact 2-dimensional predicate. The returned OIDs are sorted ascending
// and deduplicated; the slice is identical for every worker count. Safe
// to run concurrently with other queries, but not with Insert/Delete.
func (d *Decomposed) QueryParallel(ctx context.Context, exec *core.Executor, q MOR2Query) ([]dual.OID, error) {
	xq := dual.MORQuery{Y1: q.X1, Y2: q.X2, T1: q.T1, T2: q.T2}
	yq := dual.MORQuery{Y1: q.Y1, Y2: q.Y2, T1: q.T1, T2: q.T2}
	xsubs := d.xIndex.Subqueries(xq)
	ysubs := d.yIndex.Subqueries(yq)

	// One flat task list over both axes: the pieces of the slower axis
	// don't wait for the faster axis to finish.
	nx := len(xsubs)
	buckets := make([][]dual.OID, nx+len(ysubs))
	tasks := make([]func() error, 0, len(buckets))
	for i, sq := range xsubs {
		i, sq := i, sq
		tasks = append(tasks, func() error {
			return sq(func(id dual.OID) { buckets[i] = append(buckets[i], id) })
		})
	}
	for j, sq := range ysubs {
		j, sq := nx+j, sq
		tasks = append(tasks, func() error {
			return sq(func(id dual.OID) { buckets[j] = append(buckets[j], id) })
		})
	}
	if err := exec.RunCtx(ctx, tasks); err != nil {
		return nil, err
	}

	xIDs := core.MergeOIDs(buckets[:nx])
	yIDs := core.MergeOIDs(buckets[nx:])
	// Intersect two sorted slices; the result inherits sortedness.
	var out []dual.OID
	i, j := 0, 0
	for i < len(xIDs) && j < len(yIDs) {
		switch {
		case xIDs[i] < yIDs[j]:
			i++
		case xIDs[i] > yIDs[j]:
			j++
		default:
			if m, ok := d.motions[xIDs[i]]; ok && m.Matches(q) {
				out = append(out, xIDs[i])
			}
			i++
			j++
		}
	}
	return out, nil
}
