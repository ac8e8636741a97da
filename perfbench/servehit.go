package main

import (
	"context"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/service"
)

// serveHit repeats one join on one cached plan: uniform 50K × 50K at
// ε = 0.3 through POST /v1/join/count. After the first request the plan
// layers do no work; HTTP, admission, the cache lookup, telemetry and
// the partition probe (dpe execute → colsweep) are all that is timed.
type serveHit struct {
	n            int
	bodyR, bodyS []byte
	want         answer
	e            *env
	first        joinReply // the setup's plan-building join

	plan *spatialjoin.PreparedJoin // traced run: a plan equal to the cached one
}

const serveHitEps = 0.3

var serveHitReq = []byte(`{"r":"r","s":"s","eps":0.3}`)

func newServeHit(seed int64, scale float64) (workload, error) {
	w := &serveHit{n: int(50_000 * scale)}
	world := datagen.World()
	w.bodyR = pointBody(datagen.Uniform(world, w.n, subSeed(seed, 1), 0))
	w.bodyS = pointBody(datagen.Uniform(world, w.n, subSeed(seed, 2), 0))
	rs, err := parsePoints(w.bodyR)
	if err != nil {
		return nil, err
	}
	ss, err := parsePoints(w.bodyS)
	if err != nil {
		return nil, err
	}
	pairs, err := oraclePairs(rs, ss, serveHitEps)
	if err != nil {
		return nil, err
	}
	w.want = checksumOf(pairs)
	return w, nil
}

func (w *serveHit) setup() error {
	e, err := newEnv(service.Config{})
	if err != nil {
		return err
	}
	w.e = e
	if err := e.post("/v1/datasets?name=r", w.bodyR, nil); err != nil {
		return err
	}
	if err := e.post("/v1/datasets?name=s", w.bodyS, nil); err != nil {
		return err
	}
	w.first = joinReply{}
	if err := e.post("/v1/join/count", serveHitReq, &w.first); err != nil {
		return err
	}
	return w.first.check(w.want, "miss")
}

func (w *serveHit) release() { w.bodyR, w.bodyS = nil, nil }

// prefix: the warm-up is the setup's plan-building join; every later
// request reuses its plan, so its counts are the workload's.
func (w *serveHit) prefix() (counts, int, error) {
	var acc countAcc
	if err := acc.add(w.e, w.first, 2*w.n); err != nil {
		return counts{}, 0, err
	}
	return acc.counts(w.e), 1, nil
}

func (w *serveHit) op(int) (time.Duration, error) {
	t0 := time.Now()
	var r joinReply
	if err := w.e.post("/v1/join/count", serveHitReq, &r); err != nil {
		return 0, err
	}
	dt := time.Since(t0)
	return dt, r.check(w.want, "hit")
}

func (w *serveHit) svc() *service.Service { return w.e.svc }

func (w *serveHit) finish() error { return nil }

func (w *serveHit) close() error {
	err := w.e.close()
	w.e = nil
	return err
}

// probeSetup builds the plan the service caches for the request: the
// same inputs and presamples.
func (w *serveHit) probeSetup() error {
	in, err := registered(w.e.svc, "r", "s")
	if err != nil {
		return err
	}
	smp := in.presample()
	w.plan, err = spatialjoin.Prepare(in.r, in.s, spatialjoin.Options{
		Eps: serveHitEps, PresampledR: smp[0], PresampledS: smp[1],
	})
	return err
}

// traced times the same request three ways: over HTTP, in process
// through Service.Join, and as PreparedJoin.Execute on an equal plan.
// The per-request differences are the HTTP layer and the admission +
// cache layer.
func (w *serveHit) traced(rec *recorder, i int) error {
	req := service.JoinRequest{R: "r", S: "s", Eps: serveHitEps, Algorithm: spatialjoin.AdaptiveLPiB}
	_, err := rec.timed("request", 0, i, func(root int) error {
		err := inTurn(i, func() error {
			_, err := rec.timed("http.join", root, i, func(int) error {
				_, err := w.op(i)
				return err
			})
			return err
		}, func() error {
			_, err := rec.timed("service.Join", root, i, func(int) error {
				resp, err := w.e.svc.Join(context.Background(), req)
				if err != nil {
					return err
				}
				return (&joinReply{Results: resp.Results, Checksum: resp.Checksum, PlanCache: resp.PlanCache}).check(w.want, "hit")
			})
			return err
		}, func() error {
			return executeProbe(rec, root, i, w.plan, w.want)
		})
		if err == nil {
			rec.note("service.http_ms", rec.last("http.join")-rec.last("service.Join"))
			rec.note("service.admit_cache_ms", rec.last("service.Join")-rec.last("core.Execute"))
		}
		return err
	})
	return err
}

func (w *serveHit) layers(rec *recorder, m map[string]float64) {
	m["service.http_ms"] = rec.med("service.http_ms")
	m["service.admit_cache_ms"] = rec.med("service.admit_cache_ms")
	m["core.plan_footprint_mb"] = float64(w.plan.FootprintBytes()) / 1e6
}
