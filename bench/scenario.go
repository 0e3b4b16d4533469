package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"mobidx/internal/dual"
	"mobidx/internal/shard"
	"mobidx/internal/workload"
)

// scenario is a workload's input generator: the §5 simulator, or the
// geofence simulator for the subscription workload. Everything the stack
// under test sees — motions, update ops, fences, queries — comes out of
// here, and every random choice derives from the run's seed.
type scenario struct {
	sim *workload.Simulator   // nil for the geofence scenario
	geo *workload.GeofenceSim // nil for the §5 scenario
}

func newScenario(sp *spec, sc scale, seed int64) (*scenario, error) {
	discard := func(workload.Op) error { return nil }
	if sp.peer == peerFeed {
		p := workload.DefaultGeofenceParams(sc.of(sp.n), sc.of(sp.fences))
		p.Seed, p.Terrain = seed, terrain
		geo, err := workload.NewGeofenceSim(p)
		if err != nil {
			return nil, err
		}
		return &scenario{geo: geo}, geo.Bootstrap(discard)
	}
	p := workload.DefaultParams(sc.of(sp.n))
	p.Seed, p.Terrain = seed, terrain
	sim, err := workload.NewSimulator(p)
	if err != nil {
		return nil, err
	}
	return &scenario{sim: sim}, sim.Bootstrap(discard)
}

// motions is the current motion of every object, indexed by OID.
func (s *scenario) motions() []dual.Motion {
	if s.geo != nil {
		return s.geo.Motions()
	}
	return s.sim.Motions()
}

// fences is the scenario's standing queries; only the geofence scenario
// has any.
func (s *scenario) fences() []workload.Geofence {
	if s.geo == nil {
		return nil
	}
	return s.geo.Fences()
}

func (s *scenario) now() float64 {
	if s.geo != nil {
		return s.geo.Now()
	}
	return s.sim.Now()
}

// tick advances one time instant and returns its ops, delete+insert pairs
// in order, appended to buf.
func (s *scenario) tick(buf []shard.Op) ([]shard.Op, error) {
	collect := func(op workload.Op) error {
		buf = append(buf, shard.Op{Insert: op.Insert, M: op.Motion})
		return nil
	}
	var err error
	if s.geo != nil {
		err = s.geo.Tick(collect)
	} else {
		err = s.sim.Tick(collect)
	}
	return buf, err
}

// bruteForce is the oracle: the exact answer from the generator's own
// state, ascending by OID (motions are indexed by OID).
func (s *scenario) bruteForce(q dual.MORQuery) []dual.OID {
	if s.sim != nil {
		return s.sim.BruteForce(q)
	}
	var out []dual.OID
	for _, m := range s.geo.Motions() {
		if m.Matches(q) {
			out = append(out, m.OID)
		}
	}
	return out
}

// queryGen draws MOR queries of one mix the way Simulator.Queries does,
// from its own stream so a query client never shares generator state with
// the client that ticks the scenario.
type queryGen struct {
	rng *rand.Rand
	mix workload.QueryMix
}

func newQueryGen(seed int64, mix workload.QueryMix) *queryGen {
	return &queryGen{rng: rand.New(rand.NewSource(seed)), mix: mix}
}

func (g *queryGen) next(now float64) dual.MORQuery {
	w := g.rng.Float64() * g.mix.YQMax
	y1 := g.rng.Float64() * (terrain.YMax - w)
	tw := g.rng.Float64() * g.mix.TW
	return dual.MORQuery{Y1: y1, Y2: y1 + w, T1: now, T2: now + tw}
}

// digest is an order-sensitive fingerprint of an answer; answers are
// sorted, so equal digests and lengths mean equal answers.
func digest(ids []dual.OID) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, id := range ids {
		for i := range b {
			b[i] = byte(id >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// roundingTolerance is how far, in terrain and time units, an object may
// sit from a query's boundary and still be allowed to differ from the
// oracle. The deployment stores the paper's 12-byte records, so an index
// entry carries 4-byte floats and a candidate on the boundary can round to
// the other side; internal/harness tolerates exactly this, by this much.
const roundingTolerance = 0.05

func nearBoundary(m dual.Motion, q dual.MORQuery) bool {
	const tol = roundingTolerance
	big := dual.MORQuery{Y1: q.Y1 - tol, Y2: q.Y2 + tol, T1: q.T1 - tol, T2: q.T2 + tol}
	small := dual.MORQuery{Y1: q.Y1 + tol, Y2: q.Y2 - tol, T1: q.T1 + tol, T2: q.T2 - tol}
	if small.Y1 > small.Y2 || small.T1 > small.T2 {
		return m.Matches(big)
	}
	return m.Matches(big) && !m.Matches(small)
}

// checkAnswer compares an answer to q with the oracle's. The answer must
// be sorted and duplicate-free, and may differ from the oracle only in
// objects within roundingTolerance of q's boundary; it returns how many
// such roundings it let pass.
func (s *scenario) checkAnswer(q dual.MORQuery, got []dual.OID) (rounded int, err error) {
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			return 0, fmt.Errorf("answer not sorted and deduplicated at %d: %d then %d", i, got[i-1], got[i])
		}
	}
	motions := s.motions()
	want := s.bruteForce(q)
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			if int(got[i]) >= len(motions) || !nearBoundary(motions[got[i]], q) {
				return rounded, fmt.Errorf("spurious object %d (answer has %d oids, oracle %d)", got[i], len(got), len(want))
			}
			rounded++
			i++
		case i == len(got) || want[j] < got[i]:
			if !nearBoundary(motions[want[j]], q) {
				return rounded, fmt.Errorf("missing object %d (answer has %d oids, oracle %d)", want[j], len(got), len(want))
			}
			rounded++
			j++
		default:
			i++
			j++
		}
	}
	return rounded, nil
}
