// Command perfbench is the repository's benchmark: four in-process
// workloads against the join service (service.Open behind an httptest
// loopback server), each driven by one client in a closed loop, every
// answer checked against an independent oracle.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace 0
//
// prints the end-to-end metrics; --trace 1 instead runs the traced pass
// that times calls into each layer's public functions and prints the
// per-layer metrics. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --repeat <k> [--workload a,b] --seed <n> --seconds <s>
//
// is the steadiness report: k end-to-end runs per workload on seeds
// n … n+k-1, with the median and quartiles of every metric next to the
// bound BENCHMARK.json gives it. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"spatialjoin/internal/service"
)

// workload is one traffic mix. A run calls setup (several times for
// setup_s, each after close), release, prefix, then op in a closed loop
// (or traced), then finish and close.
type workload interface {
	// setup builds a fresh service from empty through its first correct
	// answer. The one before must have been closed.
	setup() error
	// release drops the benchmark's own copies of the inputs that only
	// the setups need, before the heap is sampled.
	release()
	// prefix runs the fixed warm-up op sequence, returning its exact
	// counts and the index of the first op after it.
	prefix() (counts, int, error)
	// op runs closed-loop op i and returns the latency of its request.
	op(i int) (time.Duration, error)
	// probeSetup builds what the traced pass's layer probes need, before
	// its clock starts.
	probeSetup() error
	// traced runs op i inside benchmark spans, with calls into each
	// layer the op crosses, all checked.
	traced(rec *recorder, i int) error
	// layers adds the workload's own per-layer metrics after a traced
	// pass.
	layers(rec *recorder, m map[string]float64)
	// svc is the service under test.
	svc() *service.Service
	// finish runs the checks that follow the loop.
	finish() error
	// close shuts the service down and removes what it wrote; closing
	// again, or before any setup, does nothing.
	close() error
}

type workloadSpec struct {
	name string
	// setups is how many fresh setups an end-to-end run times; setup_s is
	// their median. Short setups get more, since one-shot setups under
	// a second moved by ±15% between runs.
	setups int
	// opSpan is the traced pass's span around the op's request.
	opSpan string
	build  func(seed int64, scale float64) (workload, error)
}

var workloads = []workloadSpec{
	{"serve-hit", 9, "http.join", newServeHit},
	{"plan-miss", 5, "http.join", newPlanMiss},
	{"ingest-join", 5, "http.ingest", newIngestJoin},
	{"geo-join", 7, "http.geojoin", newGeoJoin},
}

func lookup(name string) (workloadSpec, bool) {
	i := slices.IndexFunc(workloads, func(w workloadSpec) bool { return w.name == name })
	if i < 0 {
		return workloadSpec{}, false
	}
	return workloads[i], true
}

// counts are the exact per-join quantities of a prefix, for a seed.
type counts struct {
	replicated  float64 // mean replicated objects per join
	shuffle     float64 // mean shuffle bytes per join
	cells       float64 // mean grid cells (tiles for geometry) per join
	inputs      float64 // mean input objects per join
	planEntries int     // plan cache entries at the end of the prefix
}

// countAcc averages the counts of a prefix's joins.
type countAcc struct {
	n                                  int
	replicated, shuffle, cells, inputs float64
}

func (c *countAcc) add(e *env, r joinReply, inputs int) error {
	shuffle, cells, err := e.joinCounts(r)
	if err != nil {
		return err
	}
	c.n++
	c.replicated += float64(r.ReplicatedR + r.ReplicatedS)
	c.shuffle += shuffle
	c.cells += cells
	c.inputs += float64(inputs)
	return nil
}

func (c *countAcc) counts(e *env) counts {
	n := float64(c.n)
	return counts{
		replicated: c.replicated / n, shuffle: c.shuffle / n,
		cells: c.cells / n, inputs: c.inputs / n,
		planEntries: e.svc.PlanCacheLen(),
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one reported metric. Layer metrics a workload does not
// exercise read 0: the prediction for a workload that bypasses a layer
// is no change.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"live_heap_mb", "MB"},
	{"replicated_objects", "count"},
	{"shuffle_mb", "MB"},
}

var perLayer = []metricDef{
	{"service.http_ms", "ms"},
	{"service.admit_cache_ms", "ms"},
	{"service.allocs_per_op", "count"},
	{"service.alloc_kb_per_op", "KB"},
	{"service.plan_cache_hit_ratio", "ratio"},
	{"service.plan_cache_entries", "count"},
	{"service.ingest_http_ms", "ms"},
	{"service.registry_apply_ms", "ms"},
	{"service.geo_http_ms", "ms"},
	{"core.prepare_ms", "ms"},
	{"core.plan_footprint_mb", "MB"},
	{"grid.cells", "count"},
	{"sample.ms", "ms"},
	{"grid.stats_ms", "ms"},
	{"agreements.build_ms", "ms"},
	{"replicate.map_ms", "ms"},
	{"colpipe.shuffle_ms", "ms"},
	{"replicate.ratio", "ratio"},
	{"core.execute_ms", "ms"},
	{"dpe.task_sum_ms", "ms"},
	{"dpe.parallel_speedup", "ratio"},
	{"dpe.straggler_ratio", "ratio"},
	{"dpe.allocs_per_execute", "count"},
	{"stream.apply_ms", "ms"},
	{"stream.deltas_per_mutation", "ratio"},
	{"stream.flips_per_kmut", "count"},
	{"stream.slab_rebuilds_per_kmut", "count"},
	{"dstore.append_ms", "ms"},
	{"dstore.wal_bytes_per_mutation", "B"},
	{"twolayer.prepare_ms", "ms"},
	{"twolayer.execute_ms", "ms"},
	{"twolayer.candidates_per_result", "ratio"},
	{"twolayer.allocs_per_join", "count"},
	{"twolayer.overhead_class_mb", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.max_rss_mb", "MB"},
	{"bench.trace_overhead_frac", "ratio"},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: serve-hit, plan-miss, ingest-join or geo-join (a comma list with --repeat)")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced pass with per-layer metrics")
		repeat  = flag.Int("repeat", 0, "steadiness report over this many runs per workload")
	)
	flag.Parse()
	if *repeat > 0 {
		names := []string{}
		for _, w := range workloads {
			names = append(names, w.name)
		}
		if *name != "" {
			names = strings.Split(*name, ",")
		}
		if err := steadiness(names, *repeat, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	spec, ok := lookup(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of serve-hit, plan-miss, ingest-join, geo-join), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(spec, *seed, d)
	} else {
		res, err = runEndToEnd(spec, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	report(spec.name, *seed, res)
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints the metrics readably, then the result line.
func report(name string, seed int64, res result) {
	fmt.Printf("# %s seed %d: %d attempted, %d failed (error_rate %g)\n",
		name, seed, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)))
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("#   %-32s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, _ := json.Marshal(res) // plain structs and maps of numbers and strings
	fmt.Println(string(line))
}

// warmed is a workload after its setups and warm-up prefix.
type warmed struct {
	w      workload
	setupS []float64 // seconds per fresh setup
	counts counts
	next   int // first op after the prefix
}

// start builds the workload, times its setups and runs the prefix. An
// end-to-end run releases the setup-only inputs first, so the live heap
// sampled after the prefix holds no benchmark copies; the traced pass
// keeps them for its layer probes.
func start(spec workloadSpec, seed int64, setups int, traced bool) (warmed, error) {
	w, err := spec.build(seed, 1)
	if err != nil {
		return warmed{}, fmt.Errorf("generating inputs: %w", err)
	}
	r := warmed{w: w}
	for range setups {
		// The previous setup's service is shut down (for a durable one
		// that is a final checkpoint) and collected outside the timed
		// window, so each setup starts from a GC'd heap with no live
		// service.
		if err := w.close(); err != nil {
			return warmed{}, fmt.Errorf("closing the previous setup: %w", err)
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(); err != nil {
			w.close()
			return warmed{}, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	if !traced {
		w.release()
	}
	if r.counts, r.next, err = w.prefix(); err != nil {
		w.close()
		return warmed{}, fmt.Errorf("prefix: %w", err)
	}
	return r, nil
}

func runEndToEnd(spec workloadSpec, seed int64, d time.Duration) (result, error) {
	r, err := start(spec, seed, spec.setups, false)
	if err != nil {
		return result{}, err
	}
	w, c := r.w, r.counts
	// The prefix ends at a fixed op index, whatever the machine's speed.
	heap := liveHeapMB()
	lr := closedLoop(d, r.next, w.op)
	if lr.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, lr.err)
	}
	if err := w.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: final check: %v\n", spec.name, err)
		lr.failed++
	}
	if err := w.close(); err != nil {
		return result{}, err
	}
	m := map[string]float64{
		"setup_s":            median(r.setupS),
		"ops_per_s":          lr.opsPerSec(),
		"op_p50_ms":          quantile(lr.lat, 0.5),
		"op_p90_ms":          quantile(lr.lat, 0.90),
		"live_heap_mb":       heap,
		"replicated_objects": c.replicated,
		"shuffle_mb":         c.shuffle / 1e6,
	}
	return newResult(lr.attempted()+1, lr.failed, endToEnd, m), nil
}

// newResult reports the metrics of defs from m.
func newResult(attempted, failed int64, defs []metricDef, m map[string]float64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, def := range defs {
		res.Metrics[def.name] = metric{m[def.name], def.unit}
	}
	return res
}

// runTraced spends half the time on the untraced closed loop, for the
// runtime and service counters and the untraced latency, and half on the
// traced loop.
func runTraced(spec workloadSpec, seed int64, d time.Duration) (result, error) {
	r, err := start(spec, seed, 1, true)
	if err != nil {
		return result{}, err
	}
	w, c := r.w, r.counts
	m := map[string]float64{}
	svc := w.svc()
	hits0, misses0 := svc.Metrics.PlanCacheHits.Value(), svc.Metrics.PlanCacheMisses.Value()
	p0 := sampleProc()
	lr := closedLoop(d/2, r.next, w.op)
	p1 := sampleProc()
	hits, misses := svc.Metrics.PlanCacheHits.Value()-hits0, svc.Metrics.PlanCacheMisses.Value()-misses0
	if lr.err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, lr.err)
	}
	ops := float64(max(len(lr.lat), 1))
	m["service.allocs_per_op"] = float64(p1.mallocs-p0.mallocs) / ops
	m["service.alloc_kb_per_op"] = float64(p1.allocBytes-p0.allocBytes) / 1e3 / ops
	if hits+misses > 0 {
		m["service.plan_cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	m["runtime.gc_cpu_frac"] = (p1.gcCPU - p0.gcCPU) / (p1.totalCPU - p0.totalCPU)
	m["runtime.cpu_ms_per_op"] = (p1.cpu - p0.cpu) * 1e3 / ops
	m["service.plan_cache_entries"] = float64(c.planEntries)
	m["grid.cells"] = c.cells
	m["replicate.ratio"] = c.replicated / c.inputs

	if err := w.probeSetup(); err != nil {
		w.close()
		return result{}, fmt.Errorf("layer probes: %w", err)
	}
	rec := newRecorder()
	var traced, failed int64
	t0 := time.Now()
	for i := lr.next; time.Since(t0) < d/2; i++ {
		traced++
		if err := w.traced(rec, i); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s: traced op %d: %v\n", spec.name, i, err)
		}
	}
	if err := w.finish(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: final check: %v\n", spec.name, err)
		failed++
	}
	m["runtime.max_rss_mb"] = maxRSSMB()
	m["core.prepare_ms"] = rec.med("core.Prepare")
	m["grid.stats_ms"] = rec.med("grid.Stats")
	m["agreements.build_ms"] = rec.med("agreements.BuildOrdered")
	m["replicate.map_ms"] = rec.med("core.Prepare/replicate")
	m["colpipe.shuffle_ms"] = rec.med("core.Prepare/shuffle")
	m["core.execute_ms"] = rec.med("core.Execute")
	m["dpe.task_sum_ms"] = rec.med("dpe.task_sum")
	m["dpe.parallel_speedup"] = rec.med("dpe.speedup")
	m["dpe.straggler_ratio"] = rec.med("dpe.straggler")
	m["dpe.allocs_per_execute"] = rec.med("dpe.allocs")
	w.layers(rec, m)
	m["bench.trace_overhead_frac"] = rec.med(spec.opSpan)/median(lr.lat) - 1
	if err := w.close(); err != nil {
		return result{}, err
	}
	out := filepath.Join(os.TempDir(), "perfbench-trace-"+spec.name+".json")
	if err := rec.write(out, spec.name, seed); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	return newResult(lr.attempted()+traced+1, lr.failed+failed, perLayer, m), nil
}
