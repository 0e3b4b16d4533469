package shard

import (
	"context"
	"errors"
	"math"
	"testing"

	"mobidx/internal/core"
	"mobidx/internal/dual"
)

// FuzzRouterApplyHostile hands arbitrary float bits to a two-band
// cluster on MemEnv media: one insert through Router.Apply, then one
// Router.Query. Each call either refuses its input with a typed
// core.ErrInvalidMotion / ErrInvalidQuery and leaves every shard healthy,
// or succeeds — and then the query answers exactly what brute force over
// the accepted motions does. Nothing may panic.
func FuzzRouterApplyHostile(f *testing.F) {
	bits := math.Float64bits
	f.Add(bits(500), bits(0), bits(1), bits(100), bits(300), bits(10), bits(40))
	f.Add(bits(50), bits(math.NaN()), bits(1), bits(0), bits(1000), bits(0), bits(5))
	f.Add(bits(math.Inf(1)), bits(0), bits(-0.5), bits(math.NaN()), bits(1), bits(0), bits(1))
	f.Add(bits(-200), bits(0), bits(7), bits(300), bits(100), bits(0), bits(1))
	f.Add(bits(999.5), bits(-1e6), bits(-1.66), bits(0), bits(0), bits(5), bits(5))
	f.Add(bits(0), bits(1e9), bits(0.16), bits(-1e12), bits(1e12), bits(-1e12), bits(1e12))
	ctx := context.Background()
	f.Fuzz(func(t *testing.T, y0, t0, v, y1, y2, t1, t2 uint64) {
		c, err := OpenCluster(NewMemEnv(0), ClusterConfig{Terrain: terrain1D}, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		r := c.Router()
		ms := motions1D(24)
		if err := r.Apply(ctx, opsFor(ms)); err != nil {
			t.Fatal(err)
		}
		healthy := func(what string) {
			t.Helper()
			for i := 0; i < c.Bands(); i++ {
				if h := r.Shard(i).Health(); !h.Healthy {
					t.Fatalf("%s: shard %d reports %+v", what, i, h)
				}
			}
		}

		m := dual.Motion{OID: 1000, Y0: math.Float64frombits(y0), T0: math.Float64frombits(t0), V: math.Float64frombits(v)}
		switch err := r.Apply(ctx, []Op{{Insert: true, M: m}}); {
		case err == nil:
			ms = append(ms, m)
		case errors.Is(err, core.ErrInvalidMotion):
			healthy("after a refused motion")
		default:
			t.Fatalf("Apply(%+v) = %v, want nil or core.ErrInvalidMotion", m, err)
		}

		q := dual.MORQuery{Y1: math.Float64frombits(y1), Y2: math.Float64frombits(y2),
			T1: math.Float64frombits(t1), T2: math.Float64frombits(t2)}
		got, err := r.Query(ctx, q)
		switch {
		case err == nil:
			if want := bruteForce(nil, ms, q, nil); fingerprint(got) != fingerprint(want) {
				t.Fatalf("query %+v over %+v: %q, brute force %q", q, m, fingerprint(got), fingerprint(want))
			}
		case errors.Is(err, core.ErrInvalidQuery):
			healthy("after a refused query")
		default:
			t.Fatalf("Query(%+v) = %v, want nil or core.ErrInvalidQuery", q, err)
		}
	})
}
