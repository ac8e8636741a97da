package main

import (
	"fmt"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/service"
)

// planMiss makes every request build a plan: TIGER-like R × OSM-like S
// (50K × 50K per pair) on skewed data, where adaptive replication
// matters. Request i joins pair i % missPairs at ladder ε index
// i % missLadder; the (pair, ε) combinations repeat every missLadder
// requests, more than the service's default 32-plan LRU holds, so each
// request misses. Sampling → grid stats → agreements → replicate →
// counting-sort shuffle dominate.
//
// Several independent pairs, not one: a single TIGER-like set is a few
// dozen random walks, and how they fall on the grid moves its
// replication count by ±10% between seeds. Spreading the requests over
// eight pairs averages that out.
type planMiss struct {
	n      int
	bodies [missPairs][2][]byte
	want   [missLadder]answer
	e      *env
	next   int // next op index the setup/prefix sequence reaches

	samples map[string][2][]spatialjoin.Tuple // traced run: presamples per pair
	fp      float64                           // traced run: first probe plan's footprint, MB
}

const (
	missPairs  = 8
	missLadder = 40
)

// missEps is ladder value k: 0.200, 0.202, … 0.278.
func missEps(k int) float64 { return float64(200+2*k) / 1000 }

func missCombo(i int) (pair, k int) { return i % missPairs, i % missLadder }

func missRequest(i int) []byte {
	p, k := missCombo(i)
	return []byte(fmt.Sprintf(`{"r":"r%d","s":"s%d","eps":%v}`, p, p, missEps(k)))
}

func newPlanMiss(seed int64, scale float64) (workload, error) {
	w := &planMiss{n: int(50_000 * scale)}
	world := datagen.World()
	for p := 0; p < missPairs; p++ {
		w.bodies[p][0] = pointBody(datagen.TigerLike(world, w.n, subSeed(seed, 2*p), 0))
		w.bodies[p][1] = pointBody(datagen.OSMLike(world, w.n, subSeed(seed, 2*p+1), 0))
		rs, err := parsePoints(w.bodies[p][0])
		if err != nil {
			return nil, err
		}
		ss, err := parsePoints(w.bodies[p][1])
		if err != nil {
			return nil, err
		}
		// One collected oracle join at the pair's largest ε, filtered
		// down to each smaller ε the pair is asked for.
		var ks []int
		for k := p; k < missLadder; k += missPairs {
			ks = append(ks, k)
		}
		pairs, err := oraclePairs(rs, ss, missEps(ks[len(ks)-1]))
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			w.want[k] = checksumOf(filterEps(pairs, rs, ss, missEps(k)))
		}
	}
	return w, nil
}

func (w *planMiss) setup() error {
	e, err := newEnv(service.Config{})
	if err != nil {
		return err
	}
	w.e = e
	for p := range w.bodies {
		for side, name := range []string{"r", "s"} {
			if err := e.post(fmt.Sprintf("/v1/datasets?name=%s%d", name, p), w.bodies[p][side], nil); err != nil {
				return err
			}
		}
	}
	_, err = w.miss(0)
	w.next = 1
	return err
}

func (w *planMiss) release() { w.bodies = [missPairs][2][]byte{} }

// miss sends request i and checks it was answered correctly by a fresh plan.
func (w *planMiss) miss(i int) (joinReply, error) {
	var r joinReply
	if err := w.e.post("/v1/join/count", missRequest(i), &r); err != nil {
		return r, err
	}
	_, k := missCombo(i)
	return r, r.check(w.want[k], "miss")
}

// prefix runs the warm-up cycle, requests 1 … missLadder, which asks for
// every (pair, ε) combination once; its mean counts are exact.
func (w *planMiss) prefix() (counts, int, error) {
	var acc countAcc
	for i := w.next; i < w.next+missLadder; i++ {
		r, err := w.miss(i)
		if err != nil {
			return counts{}, 0, fmt.Errorf("warm-up request %d: %w", i, err)
		}
		if err := acc.add(w.e, r, 2*w.n); err != nil {
			return counts{}, 0, err
		}
	}
	return acc.counts(w.e), w.next + missLadder, nil
}

func (w *planMiss) op(i int) (time.Duration, error) {
	t0 := time.Now()
	_, err := w.miss(i)
	return time.Since(t0), err
}

func (w *planMiss) svc() *service.Service { return w.e.svc }

func (w *planMiss) finish() error { return nil }

func (w *planMiss) probeSetup() error { return nil }

func (w *planMiss) close() error {
	err := w.e.close()
	w.e = nil
	return err
}

// traced sends request i, then rebuilds the same plan from the layers'
// public functions: grid statistics and the graph of agreements alone,
// then spatialjoin.Prepare as the service calls it (its replicate and
// shuffle phases come from the facade's spans), then Execute.
func (w *planMiss) traced(rec *recorder, i int) error {
	p, k := missCombo(i)
	rname, sname := fmt.Sprintf("r%d", p), fmt.Sprintf("s%d", p)
	_, err := rec.timed("request", 0, i, func(root int) error {
		if _, err := rec.timed("http.join", root, i, func(int) error {
			_, err := w.op(i)
			return err
		}); err != nil {
			return err
		}
		in, err := registered(w.e.svc, rname, sname)
		if err != nil {
			return err
		}
		// The service caches each dataset's sample across ε re-plans,
		// so sampling is not part of a plan-miss request.
		smp, ok := w.samples[rname]
		if !ok {
			smp = in.presample()
			if w.samples == nil {
				w.samples = map[string][2][]spatialjoin.Tuple{}
			}
			w.samples[rname] = smp
		}
		plan, err := planProbes(rec, root, i, in, smp, missEps(k), w.want[k])
		if w.fp == 0 && plan != nil {
			w.fp = float64(plan.FootprintBytes()) / 1e6
		}
		return err
	})
	return err
}

func (w *planMiss) layers(rec *recorder, m map[string]float64) {
	m["core.plan_footprint_mb"] = w.fp
}
