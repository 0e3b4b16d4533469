// Package core assembles the paper's one-dimensional mobile-object indexes
// from the substrate packages:
//
//   - DualBPlus — the query-approximation method of §3.5.2: c observation
//     B+-tree indexes over Hough-Y b-coordinates plus c subterrain interval
//     indexes, with queries routed to minimize the enlargement E.
//   - PointDual — the "index the dual point, answer a linear-constraint
//     query" family: Hough-X dual points in a paged point structure,
//     answering the wedge query of Proposition 1. NewKDDual puts them in
//     k-d trees (the point-access-method approach of §3.5.1),
//     NewPartTreeDual in partition trees (§3.4); package twod builds the
//     4-dimensional members of §4.2 on the same type.
//   - RStarSeg — the traditional baseline of §3.1/§5: an R*-tree over
//     trajectory line segments in the (t, y) plane.
//
// All three implement Index1D. Updates follow the paper's model (§2, §3):
// an object's change of motion is a Delete of the old motion followed by an
// Insert of the new one.
//
// DualBPlus and PointDual bound their dual coordinates with the two-index
// rotation scheme of §3.2 (see Rotator): motions are assigned to
// generations by update time, each generation computes dual coordinates
// against its own reference time, and a generation is retired once every
// object has moved on — which the T_period = YMax/VMin forced-update bound
// guarantees happens within one period.
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"mobidx/internal/dual"
)

// Index1D answers one-dimensional MOR queries over a dynamic set of
// linearly moving objects.
type Index1D interface {
	// Insert adds an object's current motion. The motion's speed must lie
	// within the terrain's [VMin, VMax] band (in absolute value).
	Insert(m dual.Motion) error
	// Delete removes a motion previously added with Insert. The exact
	// motion must be passed back (the caller tracks each object's current
	// motion; an update is Delete(old) + Insert(new)).
	Delete(m dual.Motion) error
	// Query reports the OID of every object whose motion places it inside
	// [q.Y1, q.Y2] at some instant in [q.T1, q.T2]. Each matching object
	// is reported exactly once.
	Query(q dual.MORQuery, emit func(dual.OID)) error
	// Len returns the number of indexed objects.
	Len() int
}

// Typed admission failures: every error ValidateMotion and ValidateQuery
// return matches one of these under errors.Is, so a caller can tell its
// own bad input from a failure of the store or the index.
var (
	ErrInvalidMotion = errors.New("core: invalid motion")
	ErrInvalidQuery  = errors.New("core: invalid query")
)

// invalidInput is an admission failure: it prints its own message and
// matches its class (ErrInvalidMotion or ErrInvalidQuery) under errors.Is.
type invalidInput struct {
	class error
	msg   string
}

func (e *invalidInput) Error() string { return e.msg }
func (e *invalidInput) Unwrap() error { return e.class }

func invalid(class error, format string, args ...any) error {
	return &invalidInput{class: class, msg: fmt.Sprintf(format, args...)}
}

// ValidateMotion checks that m is finite and inside the terrain's speed
// band and position range — the exact admission test every index
// constructor in this package applies, exported so write tiers in front of
// an index (ingest) can reject a motion before staging it rather than at
// merge time.
func ValidateMotion(m dual.Motion, tr dual.Terrain) error {
	if err := finiteMotion(m); err != nil {
		return err
	}
	s := math.Abs(m.V)
	if s < tr.VMin-1e-12 || s > tr.VMax+1e-12 {
		return invalid(ErrInvalidMotion, "core: speed %v outside [%v, %v]", m.V, tr.VMin, tr.VMax)
	}
	if m.Y0 < -1e-9 || m.Y0 > tr.YMax+1e-9 {
		return invalid(ErrInvalidMotion, "core: position %v outside terrain [0, %v]", m.Y0, tr.YMax)
	}
	return nil
}

// finiteMotion rejects NaN and ±Inf fields: every range comparison is false
// for NaN, and T0 (which picks the rotation epoch) is otherwise never
// looked at.
func finiteMotion(m dual.Motion) error {
	for _, f := range [...]float64{m.V, m.Y0, m.T0} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return invalid(ErrInvalidMotion, "core: non-finite motion (y0 %v, t0 %v, v %v)", m.Y0, m.T0, m.V)
		}
	}
	return nil
}

// ValidateQuery checks that q's bounds are finite and ordered (Y1 ≤ Y2,
// T1 ≤ T2) — the admission test every query entry point applies, because
// the planners clamp what they cannot order (a NaN bound lands in band 0)
// and would answer with the wrong objects and no error. A degenerate range
// (Y1 = Y2, T1 = T2) and a finite range outside the terrain are legal.
func ValidateQuery(q dual.MORQuery) error {
	for _, f := range [...]float64{q.Y1, q.Y2, q.T1, q.T2} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return invalid(ErrInvalidQuery, "core: non-finite query (y [%v, %v], t [%v, %v])", q.Y1, q.Y2, q.T1, q.T2)
		}
	}
	if q.Y1 > q.Y2 {
		return invalid(ErrInvalidQuery, "core: query range y [%v, %v] is reversed", q.Y1, q.Y2)
	}
	if q.T1 > q.T2 {
		return invalid(ErrInvalidQuery, "core: query range t [%v, %v] is reversed", q.T1, q.T2)
	}
	return nil
}

// Generation is one epoch's index inside a Rotator: it must support
// inserting and deleting motions of type M and releasing its storage.
type Generation[M any] interface {
	Insert(m M) error
	Delete(m M) error
	Len() int
	// Destroy releases all storage held by the generation.
	Destroy() error
}

// Rotator implements the staggered two-index scheme of §3.2. Motions are
// partitioned by epoch(T0) = floor(T0/period); each epoch has its own
// generation index whose dual coordinates are computed against the epoch
// start, so they stay bounded regardless of how long the system runs. A
// generation is destroyed when its last motion is deleted, which the
// forced-update bound guarantees within one period of its epoch's end.
//
// The rotator is generic so the same lifecycle serves 1-dimensional
// indexes (M = dual.Motion) and 2-dimensional ones (M = twod.Motion2D).
// Queries are the caller's business: iterate Live().
type Rotator[M any, G Generation[M]] struct {
	period  float64
	updTime func(M) float64
	make    func(tref float64) (G, error)
	// epochs is ascending and gens[i] is the generation of epochs[i]: every
	// walk over the live generations (a query, a reindex, a retirement)
	// goes in epoch order, so page allocation repeats run to run.
	epochs []int64
	gens   []G
	size   int
}

// NewRotator builds a rotator; mk constructs a fresh generation whose dual
// coordinates are relative to tref, and updTime extracts a motion's update
// time (which selects its epoch).
func NewRotator[M any, G Generation[M]](period float64, updTime func(M) float64, mk func(tref float64) (G, error)) (*Rotator[M, G], error) {
	if period <= 0 {
		return nil, fmt.Errorf("core: rotation period must be positive, got %v", period)
	}
	return &Rotator[M, G]{period: period, updTime: updTime, make: mk}, nil
}

func (r *Rotator[M, G]) epoch(t float64) int64 { return int64(math.Floor(t / r.period)) }

// Generations returns the number of live generations (at most two when the
// forced-update assumption holds).
func (r *Rotator[M, G]) Generations() int { return len(r.gens) }

// Len returns the number of indexed motions across generations.
func (r *Rotator[M, G]) Len() int { return r.size }

// Live returns the live generations in ascending epoch order (query them
// all; each object lives in exactly one, so no cross-generation duplicates
// arise). The slice is the rotator's own: read it, do not keep it across
// an Insert, Delete or BulkLoad.
func (r *Rotator[M, G]) Live() []G { return r.gens }

// adopt records g as the generation of epoch e, which must not be live.
func (r *Rotator[M, G]) adopt(e int64, g G, size int) {
	i, _ := slices.BinarySearch(r.epochs, e)
	r.epochs = slices.Insert(r.epochs, i, e)
	r.gens = slices.Insert(r.gens, i, g)
	r.size += size
}

// retire destroys the i-th live generation and forgets it.
func (r *Rotator[M, G]) retire(i int) error {
	if err := r.gens[i].Destroy(); err != nil {
		return err
	}
	r.epochs = slices.Delete(r.epochs, i, i+1)
	r.gens = slices.Delete(r.gens, i, i+1)
	return nil
}

// Insert routes m to the generation of its update epoch.
func (r *Rotator[M, G]) Insert(m M) error {
	e := r.epoch(r.updTime(m))
	i, ok := slices.BinarySearch(r.epochs, e)
	if !ok {
		g, err := r.make(float64(e) * r.period)
		if err != nil {
			return err
		}
		r.adopt(e, g, 0)
	}
	if err := r.gens[i].Insert(m); err != nil {
		return err
	}
	r.size++
	// Retire any older generation that drained while it was still the
	// newest (Delete could not retire it then — there was nowhere newer).
	for j := i - 1; j >= 0; j-- {
		if r.gens[j].Len() == 0 {
			if err := r.retire(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// Delete removes m from its generation, retiring the generation when it
// drains and a newer one exists.
func (r *Rotator[M, G]) Delete(m M) error {
	e := r.epoch(r.updTime(m))
	i, ok := slices.BinarySearch(r.epochs, e)
	if !ok {
		return fmt.Errorf("core: no generation for epoch %d", e)
	}
	if err := r.gens[i].Delete(m); err != nil {
		return err
	}
	r.size--
	if r.gens[i].Len() == 0 && i < len(r.gens)-1 {
		return r.retire(i)
	}
	return nil
}

// BulkLoad replaces the rotator's contents with ms: it destroys every live
// generation, groups ms by rotation epoch (input order kept within a
// group), and for each epoch in ascending order makes a fresh generation
// and hands it its group through load, which reads the group and keeps
// none of it. Grouping is one counting pass and allocates no per-epoch
// slices: when every motion falls in one epoch, as under the forced-update
// bound most reindexes do, the group is ms itself; otherwise one buffer of
// len(ms) holds the groups back to back. The caller validates ms first and
// runs the call inside pager.RunBatch, so a failure midway rolls the store
// back; the rotator itself is then empty or partly loaded and must be
// loaded again.
func (r *Rotator[M, G]) BulkLoad(ms []M, load func(G, []M) error) error {
	for len(r.gens) > 0 {
		if err := r.retire(0); err != nil {
			return err
		}
	}
	r.size = 0
	// epochs is ascending, and counts[k] motions fall in epochs[k].
	var epochs []int64
	var counts []int
	for _, m := range ms {
		e := r.epoch(r.updTime(m))
		k, ok := slices.BinarySearch(epochs, e)
		if !ok {
			epochs, counts = slices.Insert(epochs, k, e), slices.Insert(counts, k, 0)
		}
		counts[k]++
	}
	groups := ms
	if len(epochs) > 1 {
		next := make([]int, len(epochs)) // where each group's next motion goes
		for k := 1; k < len(epochs); k++ {
			next[k] = next[k-1] + counts[k-1]
		}
		groups = make([]M, len(ms))
		for _, m := range ms {
			k, _ := slices.BinarySearch(epochs, r.epoch(r.updTime(m)))
			groups[next[k]] = m
			next[k]++
		}
	}
	for k, e := range epochs {
		g, err := r.make(float64(e) * r.period)
		if err != nil {
			return err
		}
		group := groups[:counts[k]]
		groups = groups[counts[k]:]
		if err := load(g, group); err != nil {
			return err
		}
		r.adopt(e, g, len(group))
	}
	return nil
}

// motionTime extracts the update time of a 1-dimensional motion, the epoch
// selector for all 1-dimensional indexes.
func motionTime(m dual.Motion) float64 { return m.T0 }
