package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/extgeom"
	"spatialjoin/internal/sedonasim"
	"spatialjoin/internal/sweep"
	"spatialjoin/internal/textio"
	"spatialjoin/internal/tuple"
)

// answer is the expected outcome of one join request. An empty checksum
// means the endpoint reports none (the geometry join).
type answer struct {
	results  int64
	checksum string
}

func (a answer) String() string { return fmt.Sprintf("%d/%s", a.results, a.checksum) }

// subSeed derives the seed of one generated input from the run seed, so
// that every dataset of a run is independent and reproducible.
func subSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k)*7919 + 1 }

// pointBody renders points as the upload format of POST /v1/datasets:
// "x y" lines with shortest round-trip floats, so the service parses
// exactly the coordinates the oracle sees.
func pointBody(ts []spatialjoin.Tuple) []byte {
	b := make([]byte, 0, len(ts)*40)
	for _, t := range ts {
		b = strconv.AppendFloat(b, t.Pt.X, 'g', -1, 64)
		b = append(b, ' ')
		b = strconv.AppendFloat(b, t.Pt.Y, 'g', -1, 64)
		b = append(b, '\n')
	}
	return b
}

// parsePoints reads an upload body back the way the service does, so the
// oracle joins the same tuples (ids are line numbers from 0).
func parsePoints(body []byte) ([]spatialjoin.Tuple, error) {
	return textio.Read(bytes.NewReader(body), 0)
}

// checksumOf is the service's order-independent pair checksum.
func checksumOf(pairs []tuple.Pair) answer {
	var c sweep.Counter
	for _, p := range pairs {
		c.EmitPair(p)
	}
	return answer{results: c.N, checksum: fmt.Sprintf("%016x", c.Checksum)}
}

// oraclePairs collects every pair within eps with the Sedona-style
// quadtree + R-tree join, an implementation independent of the adaptive
// pipeline the service runs.
func oraclePairs(rs, ss []spatialjoin.Tuple, eps float64) ([]tuple.Pair, error) {
	res, err := sedonasim.Join(rs, ss, sedonasim.Config{Eps: eps, Collect: true})
	if err != nil {
		return nil, fmt.Errorf("oracle join: %w", err)
	}
	return res.Pairs, nil
}

// filterEps keeps the pairs of a larger-ε oracle run that lie within a
// smaller eps, with the kernels' own predicate (squared distance <= ε²).
// Ids index rs and ss, as parsePoints assigns them.
func filterEps(pairs []tuple.Pair, rs, ss []spatialjoin.Tuple, eps float64) []tuple.Pair {
	eps2 := eps * eps
	out := make([]tuple.Pair, 0, len(pairs))
	for _, p := range pairs {
		if rs[p.RID].Pt.SqDist(ss[p.SID].Pt) <= eps2 {
			out = append(out, p)
		}
	}
	return out
}

// geomSets generates the geometry workload's inputs: polygons on R and
// polylines on S around uniform centres, with the extents cmd/bench uses.
func geomSets(n int, seed int64) (rs, ss []extgeom.Object, err error) {
	world := datagen.World()
	rs, err = datagen.GeomObjects(
		datagen.GeomSpec{Kind: "polygon", MinExtent: 0.2, MaxExtent: 1, Verts: 6, ShapeSeed: subSeed(seed, 1)},
		func(emit func(tuple.Tuple)) { datagen.UniformEach(world, n, subSeed(seed, 2), 0, emit) })
	if err != nil {
		return nil, nil, err
	}
	ss, err = datagen.GeomObjects(
		datagen.GeomSpec{Kind: "polyline", MinExtent: 0.2, MaxExtent: 1, Verts: 4, ShapeSeed: subSeed(seed, 3)},
		func(emit func(tuple.Tuple)) { datagen.UniformEach(world, n, subSeed(seed, 4), 0, emit) })
	return rs, ss, err
}

// geomBody renders objects in the upload format of POST /v1/geodatasets.
func geomBody(objs []extgeom.Object) ([]byte, error) {
	var b bytes.Buffer
	if err := textio.WriteGeoms(&b, objs); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// moveBatch builds ingest batch b of the ingest-join workload: n
// distinct ids per batch, each moved to a uniform position in the world,
// alternating between the two sets. Ids are distinct within a batch:
// each batch is one tick of a moving-object feed, in which every object
// reports at most once.
func moveBatch(seed int64, b, n, points int) (muts []mutation) {
	rng := rand.New(rand.NewSource(subSeed(seed, 1000+b)))
	world := datagen.World()
	seen := make(map[[2]int64]bool, n)
	muts = make([]mutation, 0, n)
	for len(muts) < n {
		set := len(muts) & 1
		id := int64(rng.Intn(points))
		if seen[[2]int64{int64(set), id}] {
			continue
		}
		seen[[2]int64{int64(set), id}] = true
		muts = append(muts, mutation{
			set: set, id: id,
			x: world.MinX + rng.Float64()*world.Width(),
			y: world.MinY + rng.Float64()*world.Height(),
		})
	}
	return muts
}

// mutation is one upsert of the ingest-join workload; set 0 is R, 1 is S.
type mutation struct {
	set  int
	id   int64
	x, y float64
}

// ndjson renders a batch as the body of POST /v1/stream/ingest.
func ndjson(muts []mutation) []byte {
	b := make([]byte, 0, len(muts)*64)
	for _, m := range muts {
		b = append(b, `{"op":"upsert","set":"`...)
		b = append(b, "rs"[m.set])
		b = append(b, `","id":`...)
		b = strconv.AppendInt(b, m.id, 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendFloat(b, m.x, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, m.y, 'g', -1, 64)
		b = append(b, "}\n"...)
	}
	return b
}
