package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"spatialjoin"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/sedonasim"
	"spatialjoin/internal/service"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/twolayer"
)

// geoJoin is the only workload on the two-layer non-point engine:
// 20K polygons × 20K polylines, POST /v1/geojoin/count with the
// intersects predicate. Geometry joins have no plan cache, so every
// request runs twolayer.Prepare (MBR replication into tile classes) and
// Execute (class-pair sweeps and exact refinement).
type geoJoin struct {
	n            int
	bodyR, bodyS []byte
	objs         [2][]extgeom.Object // traced run: the parsed inputs
	want         answer
	e            *env
	first        joinReply
}

var geoReq = []byte(`{"r":"r","s":"s","predicate":"intersects"}`)

func newGeoJoin(seed int64, scale float64) (workload, error) {
	w := &geoJoin{n: int(20_000 * scale)}
	rs, ss, err := geomSets(w.n, seed)
	if err != nil {
		return nil, err
	}
	if w.bodyR, err = geomBody(rs); err != nil {
		return nil, err
	}
	if w.bodyS, err = geomBody(ss); err != nil {
		return nil, err
	}
	for side, body := range [][]byte{w.bodyR, w.bodyS} {
		if w.objs[side], err = textio.ReadGeoms(bytes.NewReader(body), 0); err != nil {
			return nil, err
		}
	}
	pairs, err := sedonasim.JoinObjects(w.objs[0], w.objs[1], sedonasim.ObjectsConfig{Pred: extgeom.Intersects})
	if err != nil {
		return nil, fmt.Errorf("oracle geometry join: %w", err)
	}
	w.want = answer{results: int64(len(pairs))}
	return w, nil
}

func (w *geoJoin) setup() error {
	e, err := newEnv(service.Config{})
	if err != nil {
		return err
	}
	w.e = e
	if err := e.post("/v1/geodatasets?name=r", w.bodyR, nil); err != nil {
		return err
	}
	if err := e.post("/v1/geodatasets?name=s", w.bodyS, nil); err != nil {
		return err
	}
	w.first = joinReply{}
	if err := e.post("/v1/geojoin/count", geoReq, &w.first); err != nil {
		return err
	}
	return w.first.check(w.want, "")
}

func (w *geoJoin) release() { w.bodyR, w.bodyS, w.objs = nil, nil, [2][]extgeom.Object{} }

// prefix: every geometry request does the same work, so the setup's
// join carries the workload's counts.
func (w *geoJoin) prefix() (counts, int, error) {
	var acc countAcc
	if err := acc.add(w.e, w.first, 2*w.n); err != nil {
		return counts{}, 0, err
	}
	return acc.counts(w.e), 1, nil
}

func (w *geoJoin) op(int) (time.Duration, error) {
	t0 := time.Now()
	var r joinReply
	if err := w.e.post("/v1/geojoin/count", geoReq, &r); err != nil {
		return 0, err
	}
	dt := time.Since(t0)
	return dt, r.check(w.want, "")
}

func (w *geoJoin) svc() *service.Service { return w.e.svc }

func (w *geoJoin) finish() error { return nil }

func (w *geoJoin) probeSetup() error { return nil }

func (w *geoJoin) close() error {
	err := w.e.close()
	w.e = nil
	return err
}

// traced times the request over HTTP and through Service.GeoJoin, then
// the two-layer engine's own Prepare and Execute on the same objects.
func (w *geoJoin) traced(rec *recorder, i int) error {
	_, err := rec.timed("request", 0, i, func(root int) error {
		err := inTurn(i, func() error {
			_, err := rec.timed("http.geojoin", root, i, func(int) error {
				_, err := w.op(i)
				return err
			})
			return err
		}, func() error {
			_, err := rec.timed("service.GeoJoin", root, i, func(int) error {
				resp, err := w.e.svc.GeoJoin(context.Background(), service.GeoJoinRequest{R: "r", S: "s", Predicate: "intersects"})
				if err != nil {
					return err
				}
				return (&joinReply{Results: resp.Results}).check(w.want, "")
			})
			return err
		})
		if err != nil {
			return err
		}
		rec.note("service.geo_http_ms", rec.last("http.geojoin")-rec.last("service.GeoJoin"))
		return w.twolayerProbe(rec, root, i)
	})
	return err
}

func (w *geoJoin) twolayerProbe(rec *recorder, root, req int) error {
	tr := spatialjoin.NewTracer()
	m0 := mallocs()
	var plan *twolayer.Plan
	id, err := rec.timed("twolayer.Prepare", root, req, func(int) error {
		var err error
		plan, err = twolayer.Prepare(twolayer.Config{R: w.objs[0], S: w.objs[1], Pred: extgeom.Intersects, Tracer: tr})
		return err
	})
	if err != nil {
		return err
	}
	rec.adopt(tr, "twolayer.Prepare", id, req)
	var res int64
	if _, err := rec.timed("twolayer.Execute", root, req, func(int) error {
		r, err := plan.Execute(context.Background(), twolayer.ExecOptions{})
		if err == nil {
			res = r.Results
		}
		return err
	}); err != nil {
		return err
	}
	rec.note("twolayer.allocs", float64(mallocs()-m0))
	if res != w.want.results {
		return fmt.Errorf("twolayer: got %d results, want %d", res, w.want.results)
	}
	rec.note("twolayer.candidates_per_result", float64(plan.Kernel().Stats.Candidates.Load())/float64(res))
	cb := plan.ClassBytes()
	rec.note("twolayer.overhead_class_mb", float64(cb["b"]+cb["c"]+cb["d"])/1e6)
	return nil
}

func (w *geoJoin) layers(rec *recorder, m map[string]float64) {
	m["service.geo_http_ms"] = rec.med("service.geo_http_ms")
	m["twolayer.prepare_ms"] = rec.med("twolayer.Prepare")
	m["twolayer.execute_ms"] = rec.med("twolayer.Execute")
	m["twolayer.candidates_per_result"] = rec.med("twolayer.candidates_per_result")
	m["twolayer.allocs_per_join"] = rec.med("twolayer.allocs")
	m["twolayer.overhead_class_mb"] = rec.med("twolayer.overhead_class_mb")
}
