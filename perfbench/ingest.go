package main

import (
	"fmt"
	"os"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/dstore"
	"spatialjoin/internal/service"
	"spatialjoin/internal/stream"
	"spatialjoin/internal/tuple"
)

// ingestJoin puts writes beside reads on a durable daemon: a stream
// linked to two uniform 50K-point datasets at ε = 0.3 receives batches
// of ingestBatch upserts that move existing ids, and after every
// ingestJoinEvery-th batch a join on the linked datasets misses the plan
// cache, because every mirrored batch bumps the datasets' generation.
// It exercises the stream engine, Registry.Apply, the dstore WAL and
// plan builds on fresh data. The op is one ingest batch; the joins run
// inside the loop, so their cost shows in ops_per_s.
//
// Durability: DataDir in a fresh temp dir, Fsync off, no periodic
// checkpoint (CheckpointEvery 0).
type ingestJoin struct {
	seed         int64
	n            int
	bodyR, bodyS []byte
	mirror       [2][]spatialjoin.Tuple // the benchmark's own copy of the live data, by id
	want0        answer                 // the join on the initial data
	dir          string
	e            *env

	// traced run: standalone copies of the layers fed the same batches.
	eng    *stream.Engine
	reg    *service.Registry
	store  *dstore.Store
	walDir string
	walB   int64
	muts   int64
	br     stream.BatchResult
	fp     float64
}

const (
	ingestEps       = 0.3
	ingestBatch     = 256
	ingestJoinEvery = 8
	ingestPrefix    = 2 * ingestJoinEvery // warm-up batches
)

var (
	ingestJoinReq = []byte(`{"r":"r","s":"s","eps":0.3}`)
	streamReq     = []byte(`{"name":"live","eps":0.3,"min_x":0,"min_y":0,"max_x":100,"max_y":100,"r_dataset":"r","s_dataset":"s"}`)
)

func newIngestJoin(seed int64, scale float64) (workload, error) {
	w := &ingestJoin{seed: seed, n: int(50_000 * scale)}
	world := datagen.World()
	w.bodyR = pointBody(datagen.Uniform(world, w.n, subSeed(seed, 1), 0))
	w.bodyS = pointBody(datagen.Uniform(world, w.n, subSeed(seed, 2), 0))
	for set, body := range [][]byte{w.bodyR, w.bodyS} {
		ts, err := parsePoints(body)
		if err != nil {
			return nil, err
		}
		w.mirror[set] = ts
	}
	pairs, err := oraclePairs(w.mirror[0], w.mirror[1], ingestEps)
	if err != nil {
		return nil, err
	}
	w.want0 = checksumOf(pairs)
	return w, nil
}

func (w *ingestJoin) setup() error {
	dir, err := os.MkdirTemp("", "perfbench-ingest-*")
	if err != nil {
		return err
	}
	w.dir = dir
	e, err := newEnv(service.Config{DataDir: dir})
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
	if err := e.post("/v1/stream", streamReq, nil); err != nil {
		return err
	}
	r, err := w.join()
	if err != nil {
		return err
	}
	return r.check(w.want0, "")
}

func (w *ingestJoin) release() { w.bodyR, w.bodyS = nil, nil }

// join runs the linked datasets' join; after an ingest it must miss the
// plan cache.
func (w *ingestJoin) join() (joinReply, error) {
	var r joinReply
	if err := w.e.post("/v1/join/count", ingestJoinReq, &r); err != nil {
		return r, err
	}
	if r.PlanCache != "miss" {
		return r, fmt.Errorf("join after ingest: plan cache %q, want miss", r.PlanCache)
	}
	return r, nil
}

// batch returns ingest batch b and applies it to the mirror.
func (w *ingestJoin) batch(b int) []mutation {
	muts := moveBatch(w.seed, b, ingestBatch, w.n)
	for _, m := range muts {
		w.mirror[m.set][m.id].Pt = spatialjoin.Point{X: m.x, Y: m.y}
	}
	return muts
}

// ingest sends batch b over HTTP and checks every upsert was applied
// and mirrored into the datasets.
func (w *ingestJoin) ingest(b int, muts []mutation) (time.Duration, error) {
	body := ndjson(muts)
	var r struct {
		Accepted    int64  `json:"accepted"`
		Rejected    int64  `json:"rejected"`
		MirrorError string `json:"mirror_error"`
	}
	t0 := time.Now()
	err := w.e.post("/v1/stream/ingest?name=live", body, &r)
	dt := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if r.Accepted != int64(len(muts)) || r.Rejected != 0 || r.MirrorError != "" {
		return 0, fmt.Errorf("ingest batch %d: accepted %d, rejected %d, mirror error %q", b, r.Accepted, r.Rejected, r.MirrorError)
	}
	return dt, nil
}

func (w *ingestJoin) joinDue(b int) bool { return (b+1)%ingestJoinEvery == 0 }

// prefix runs the warm-up: ingestPrefix batches and the joins among
// them. Its joins' counts are exact for a seed.
func (w *ingestJoin) prefix() (counts, int, error) {
	var acc countAcc
	for b := 0; b < ingestPrefix; b++ {
		if _, err := w.ingest(b, w.batch(b)); err != nil {
			return counts{}, 0, err
		}
		if w.joinDue(b) {
			r, err := w.join()
			if err != nil {
				return counts{}, 0, err
			}
			if err := acc.add(w.e, r, 2*w.n); err != nil {
				return counts{}, 0, err
			}
		}
	}
	return acc.counts(w.e), ingestPrefix, nil
}

func (w *ingestJoin) op(b int) (time.Duration, error) {
	dt, err := w.ingest(b, w.batch(b))
	if err != nil {
		return 0, err
	}
	if w.joinDue(b) {
		_, err = w.join()
	}
	return dt, err
}

func (w *ingestJoin) svc() *service.Service { return w.e.svc }

// finish checks one more join on the final data against the oracle run
// on the benchmark's mirror. It hits the plan cache when the loop ended
// on a join.
func (w *ingestJoin) finish() error {
	var r joinReply
	if err := w.e.post("/v1/join/count", ingestJoinReq, &r); err != nil {
		return err
	}
	pairs, err := oraclePairs(w.mirror[0], w.mirror[1], ingestEps)
	if err != nil {
		return err
	}
	return r.check(checksumOf(pairs), "")
}

// close shuts down the service and removes its data dir, and the
// traced run's standalone engine and store with theirs.
func (w *ingestJoin) close() error {
	err := w.e.close()
	w.e = nil
	if w.dir != "" {
		if rerr := os.RemoveAll(w.dir); err == nil {
			err = rerr
		}
		w.dir = ""
	}
	if w.store != nil {
		if cerr := w.store.Close(); err == nil {
			err = cerr
		}
		if rerr := os.RemoveAll(w.walDir); err == nil {
			err = rerr
		}
		w.store = nil
	}
	if w.eng != nil {
		w.eng.Close()
		w.eng = nil
	}
	return err
}

// probeSetup seeds the standalone layers from the mirror: a stream
// engine with the stream's configuration, a registry holding both
// datasets, and an empty store in its own temp dir.
func (w *ingestJoin) probeSetup() error {
	world := datagen.World()
	eng, err := stream.New(stream.Config{Eps: ingestEps, Bounds: world})
	if err != nil {
		return err
	}
	w.eng = eng
	w.reg = service.NewRegistry(nil)
	for set, name := range []string{"r", "s"} {
		seed := make([]stream.Mutation, len(w.mirror[set]))
		for i, t := range w.mirror[set] {
			seed[i] = stream.Mutation{Set: tuple.Set(set), Tuple: t}
		}
		eng.Apply(seed)
		if _, err := w.reg.Put(name, append([]spatialjoin.Tuple(nil), w.mirror[set]...)); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp("", "perfbench-wal-*")
	if err != nil {
		return err
	}
	store, _, err := dstore.Open(dir, dstore.Options{OnAppend: func(n int64) { w.walB += n }})
	if err != nil {
		return err
	}
	w.store, w.walDir = store, dir
	return nil
}

// traced handles two batches per request: an even one over HTTP and an
// odd one through Service.StreamIngest in process, in turn first. Each
// is also fed to the standalone stream engine, registry and store. A due
// join runs over HTTP and is then rebuilt from the plan layers on the
// same datasets.
func (w *ingestJoin) traced(rec *recorder, i int) error {
	_, err := rec.timed("request", 0, i, func(root int) error {
		bs := []int{2 * i, 2*i + 1}
		if i%2 == 1 {
			bs[0], bs[1] = bs[1], bs[0]
		}
		for _, b := range bs {
			muts := w.batch(b)
			var err error
			if b%2 == 0 {
				_, err = rec.timed("http.ingest", root, i, func(int) error {
					_, err := w.ingest(b, muts)
					return err
				})
			} else {
				_, err = rec.timed("service.StreamIngest", root, i, func(int) error {
					br, err := w.e.svc.StreamIngest("live", streamMutations(muts))
					if err == nil && br.Upserts != int64(len(muts)) {
						err = fmt.Errorf("in-process ingest of batch %d: %d upserts applied, want %d", b, br.Upserts, len(muts))
					}
					return err
				})
			}
			if err != nil {
				return err
			}
			if err := w.layerProbes(rec, root, i, muts); err != nil {
				return err
			}
			if w.joinDue(b) {
				if err := w.joinProbes(rec, root, i); err != nil {
					return err
				}
			}
		}
		rec.note("service.ingest_http_ms", rec.last("http.ingest")-rec.last("service.StreamIngest"))
		return nil
	})
	return err
}

func streamMutations(muts []mutation) []stream.Mutation {
	out := make([]stream.Mutation, len(muts))
	for i, m := range muts {
		out[i] = stream.Mutation{Set: tuple.Set(m.set), Tuple: spatialjoin.Tuple{ID: m.id, Pt: spatialjoin.Point{X: m.x, Y: m.y}}}
	}
	return out
}

// layerProbes feeds one batch to the standalone stream engine, registry
// and store, timing each.
func (w *ingestJoin) layerProbes(rec *recorder, root, req int, muts []mutation) error {
	sm := streamMutations(muts)
	if _, err := rec.timed("stream.Apply", root, req, func(int) error {
		br := w.eng.Apply(sm)
		w.br.DeltasAdded += br.DeltasAdded
		w.br.DeltasRemoved += br.DeltasRemoved
		w.br.AgreementFlips += br.AgreementFlips
		w.br.SlabRebuilds += br.SlabRebuilds
		return nil
	}); err != nil {
		return err
	}
	w.muts += int64(len(muts))
	var ups [2][]spatialjoin.Tuple
	var logged []dstore.StreamMutation
	for _, m := range sm {
		ups[m.Set] = append(ups[m.Set], m.Tuple)
		logged = append(logged, dstore.StreamMutation{Set: uint8(m.Set), Tuple: m.Tuple})
	}
	if _, err := rec.timed("registry.Apply", root, req, func(int) error {
		for set, name := range []string{"r", "s"} {
			if _, err := w.reg.Apply(name, ups[set], nil); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// What the durable service logs per batch: the stream batch, then
	// one dataset-apply record per linked dataset.
	_, err := rec.timed("dstore.Append", root, req, func(int) error {
		if _, err := w.store.LogStreamBatch("live", time.Now(), logged); err != nil {
			return err
		}
		for set, name := range []string{"r", "s"} {
			if _, err := w.store.LogDatasetApply(name, 0, ups[set], nil); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// joinProbes runs the due join over HTTP, then rebuilds its plan from
// the layers, sampling included (a new generation has no cached sample),
// and checks both agree.
func (w *ingestJoin) joinProbes(rec *recorder, root, req int) error {
	var r joinReply
	if _, err := rec.timed("http.join", root, req, func(int) error {
		var err error
		r, err = w.join()
		return err
	}); err != nil {
		return err
	}
	in, err := registered(w.e.svc, "r", "s")
	if err != nil {
		return err
	}
	var smp [2][]spatialjoin.Tuple
	if _, err := rec.timed("sample.Bernoulli", root, req, func(int) error {
		smp = in.presample()
		return nil
	}); err != nil {
		return err
	}
	plan, err := planProbes(rec, root, req, in, smp, ingestEps, answer{r.Results, r.Checksum})
	if w.fp == 0 && plan != nil {
		w.fp = float64(plan.FootprintBytes()) / 1e6
	}
	return err
}

func (w *ingestJoin) layers(rec *recorder, m map[string]float64) {
	m["service.ingest_http_ms"] = rec.med("service.ingest_http_ms")
	m["service.registry_apply_ms"] = rec.med("registry.Apply")
	m["sample.ms"] = rec.med("sample.Bernoulli")
	m["core.plan_footprint_mb"] = w.fp
	m["stream.apply_ms"] = rec.med("stream.Apply")
	m["dstore.append_ms"] = rec.med("dstore.Append")
	if w.muts > 0 {
		mut := float64(w.muts)
		m["stream.deltas_per_mutation"] = float64(w.br.DeltasAdded+w.br.DeltasRemoved) / mut
		m["stream.flips_per_kmut"] = float64(w.br.AgreementFlips) * 1000 / mut
		m["stream.slab_rebuilds_per_kmut"] = float64(w.br.SlabRebuilds) * 1000 / mut
		m["dstore.wal_bytes_per_mutation"] = float64(w.walB) / mut
	}
}
