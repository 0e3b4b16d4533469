package core

import (
	"fmt"
	"math"

	"mobidx/internal/bptree"
	"mobidx/internal/dual"
	"mobidx/internal/pager"
)

// SpeedPartitionedConfig configures the hybrid index.
type SpeedPartitionedConfig struct {
	Terrain dual.Terrain
	// SlowCutoff is the speed below which an object counts as "slow";
	// zero selects the terrain's VMin. Objects with |v| < cutoff go to
	// the slow-side B+-tree; the rest to the moving-side index.
	SlowCutoff float64
	// Codec is the record precision of the slow-side B+-tree.
	Codec bptree.Codec
}

// SpeedPartitioned implements the paper's §3 partitioning of objects into
// the slow (v ≈ 0) and moving (VMin ≤ |v| ≤ VMax) populations. The paper
// observes that for slowly moving objects the problem degenerates to
// standard one-dimensional range searching; a B+-tree over positions
// handles them, with the query range enlarged by SlowCutoff times the
// query horizon (zero for truly static objects) and candidates filtered
// exactly. Moving objects go to whatever Index1D the caller supplies.
// The slow-side tree keys each object by the intercept of its extended
// trajectory line (its position extrapolated to t = 0) and carries the
// velocity in Aux, so a candidate's exact motion is reconstructed from
// the record alone — no side table.
type SpeedPartitioned struct {
	cfg       SpeedPartitionedConfig
	moving    Index1D
	slow      *bptree.Tree
	slowCount int
}

// NewSpeedPartitioned wraps a moving-object index with a slow-object side
// structure.
func NewSpeedPartitioned(store pager.Store, cfg SpeedPartitionedConfig, moving Index1D) (*SpeedPartitioned, error) {
	if cfg.SlowCutoff == 0 {
		cfg.SlowCutoff = cfg.Terrain.VMin
	}
	if cfg.SlowCutoff < 0 || cfg.SlowCutoff > cfg.Terrain.VMax {
		return nil, fmt.Errorf("core: slow cutoff %v outside [0, %v]", cfg.SlowCutoff, cfg.Terrain.VMax)
	}
	slow, err := bptree.New(store, bptree.Config{Codec: cfg.Codec})
	if err != nil {
		return nil, err
	}
	return &SpeedPartitioned{cfg: cfg, moving: moving, slow: slow}, nil
}

// isSlow classifies a motion.
func (s *SpeedPartitioned) isSlow(m dual.Motion) bool {
	return math.Abs(m.V) < s.cfg.SlowCutoff
}

// slowKey is the key stored for a slow object: its position extrapolated
// to t = 0 (the line's intercept), which with the velocity in Aux
// reconstructs the exact trajectory. Slow speeds keep intercepts bounded:
// |y0 − v·t0| ≤ YMax + cutoff·t0.
func slowKey(m dual.Motion) float64 { return m.Y0 - m.V*m.T0 }

// Insert implements Index1D.
func (s *SpeedPartitioned) Insert(m dual.Motion) error {
	if !s.isSlow(m) {
		return s.moving.Insert(m)
	}
	if err := finiteMotion(m); err != nil {
		return err
	}
	if m.Y0 < -1e-9 || m.Y0 > s.cfg.Terrain.YMax+1e-9 {
		return invalid(ErrInvalidMotion, "core: position %v outside terrain [0, %v]", m.Y0, s.cfg.Terrain.YMax)
	}
	if err := s.slow.Insert(bptree.Entry{Key: slowKey(m), Val: uint64(m.OID), Aux: m.V}); err != nil {
		return err
	}
	s.slowCount++
	return nil
}

// Delete implements Index1D.
func (s *SpeedPartitioned) Delete(m dual.Motion) error {
	if !s.isSlow(m) {
		return s.moving.Delete(m)
	}
	if err := s.slow.Delete(slowKey(m), uint64(m.OID)); err != nil {
		return err
	}
	s.slowCount--
	return nil
}

// Len implements Index1D.
func (s *SpeedPartitioned) Len() int { return s.slowCount + s.moving.Len() }

// SlowLen returns the number of slow-side objects.
func (s *SpeedPartitioned) SlowLen() int { return s.slowCount }

// Query implements Index1D: the moving side answers as usual; the slow
// side is a B+-tree range scan over intercepts, enlarged by the drift a
// slow object can accumulate by either end of the window, with exact
// filtering.
func (s *SpeedPartitioned) Query(q dual.MORQuery, emit func(dual.OID)) error {
	if err := s.moving.Query(q, emit); err != nil {
		return err
	}
	// A slow object with intercept k is at k + v·t; over t ∈ [T1, T2] it
	// stays within cutoff·max(|T1|, |T2|) of its intercept — a window
	// before t = 0 included — so candidates lie in the enlarged key range.
	drift := s.cfg.SlowCutoff * math.Max(math.Abs(q.T1), math.Abs(q.T2))
	return s.slow.Range(q.Y1-drift, q.Y2+drift, func(e bptree.Entry) bool {
		m := dual.Motion{OID: dual.OID(e.Val), Y0: e.Key, T0: 0, V: e.Aux}
		if m.Matches(q) {
			emit(m.OID)
		}
		return true
	})
}

// Interface compliance.
var _ Index1D = (*SpeedPartitioned)(nil)
