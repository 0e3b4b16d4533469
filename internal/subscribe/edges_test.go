package subscribe

import (
	"cmp"
	"math"
	"math/rand"
	"testing"
)

// linearAt, linearCeil and linearFloor are at, ceil and floor by a scan
// of the whole list.
func linearAt(es edges, key float64, slot uint32) (int, bool) {
	i, found := 0, false
	for _, e := range es {
		c := cmp.Compare(e.key, key)
		if c < 0 || (c == 0 && e.slot < slot) {
			i++
		}
		found = found || (c == 0 && e.slot == slot)
	}
	return i, found
}

func linearCeil(es edges, key float64) int {
	for i, e := range es {
		if cmp.Compare(e.key, key) >= 0 {
			return i
		}
	}
	return len(es)
}

func linearFloor(es edges, key float64) int {
	for i := len(es) - 1; i >= 0; i-- {
		if cmp.Compare(es[i].key, key) <= 0 {
			return i
		}
	}
	return -1
}

// TestEdgeSearch checks at, ceil and floor against a linear scan.
func TestEdgeSearch(t *testing.T) {
	negZero := math.Copysign(0, -1)
	type probe struct {
		key  float64
		slot uint32
	}
	cases := []struct {
		name   string
		es     edges
		probes []probe
	}{
		{"empty", nil, []probe{{0, 0}, {-1, 3}, {1, 0}}},
		{"one", edges{{key: 5, slot: 2}}, []probe{{4, 0}, {5, 1}, {5, 2}, {5, 3}, {6, 0}}},
		{"equal keys", edges{{key: 1, slot: 0}, {key: 1, slot: 3}, {key: 1, slot: 7}, {key: 2, slot: 1}},
			[]probe{{1, 0}, {1, 2}, {1, 3}, {1, 5}, {1, 7}, {1, 8}, {2, 0}, {2, 1}, {1.5, 0}}},
		// In slot order, which is (key, slot) order: −0 and +0 are one key.
		{"signed zeros", edges{{key: negZero, slot: 1}, {key: 0, slot: 2}, {key: negZero, slot: 4}},
			[]probe{{negZero, 0}, {negZero, 2}, {0, 4}, {0, 5}, {-1e-300, 0}, {1e-300, 0}}},
		{"spread", edges{{key: -3, slot: 9}, {key: -1, slot: 0}, {key: 2.5, slot: 4}, {key: 7, slot: 1}, {key: 7, slot: 2}},
			[]probe{{-10, 0}, {-3, 9}, {-3, 10}, {0, 0}, {2.5, 4}, {7, 0}, {7, 2}, {7, 3}, {100, 0}, {math.Inf(-1), 0}, {math.Inf(1), 0}}},
	}
	for _, tc := range cases {
		for _, p := range tc.probes {
			gi, gok := tc.es.at(p.key, p.slot)
			wi, wok := linearAt(tc.es, p.key, p.slot)
			if gi != wi || gok != wok {
				t.Errorf("%s: at(%v, %d) = %d, %v; want %d, %v", tc.name, p.key, p.slot, gi, gok, wi, wok)
			}
			if got, want := tc.es.ceil(p.key), linearCeil(tc.es, p.key); got != want {
				t.Errorf("%s: ceil(%v) = %d, want %d", tc.name, p.key, got, want)
			}
			if got, want := tc.es.floor(p.key), linearFloor(tc.es, p.key); got != want {
				t.Errorf("%s: floor(%v) = %d, want %d", tc.name, p.key, got, want)
			}
		}
	}
}

// TestEdgeInsertRemoveKeepsOrder runs seeded inserts and removes over a
// few keys (−0 and +0 among them) and slots, checking after each step
// that the list is in (key, slot) order and holds exactly the live edges.
func TestEdgeInsertRemoveKeepsOrder(t *testing.T) {
	keys := []float64{-1, math.Copysign(0, -1), 0, 0.5, 1}
	rng := rand.New(rand.NewSource(7))
	type id struct {
		key  float64
		slot uint32
	}
	live := map[id]bool{} // -0 and +0 map to one key: == on floats
	var es edges
	for step := 0; step < 2000; step++ {
		k, s := keys[rng.Intn(len(keys))], uint32(rng.Intn(6))
		if live[id{k, s}] {
			es = es.remove(k, s)
			delete(live, id{k, s})
		} else {
			es = es.insert(edge{key: k, other: k + 1, slot: s})
			live[id{k, s}] = true
		}
		if len(es) != len(live) {
			t.Fatalf("step %d: %d edges, want %d", step, len(es), len(live))
		}
		for i, e := range es {
			if !live[id{e.key, e.slot}] {
				t.Fatalf("step %d: edge %+v is not live", step, e)
			}
			if i > 0 {
				p := es[i-1]
				if c := cmp.Compare(p.key, e.key); c > 0 || (c == 0 && p.slot >= e.slot) {
					t.Fatalf("step %d: edges %+v and %+v out of (key, slot) order", step, p, e)
				}
			}
		}
	}
}
