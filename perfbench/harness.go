package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"spatialjoin/internal/service"
)

// env is one service under test behind a loopback HTTP server, and the
// single client of the closed loop.
type env struct {
	svc    *service.Service
	srv    *httptest.Server
	client *http.Client
}

func newEnv(cfg service.Config) (*env, error) {
	svc, err := service.Open(cfg)
	if err != nil {
		return nil, fmt.Errorf("opening service: %w", err)
	}
	srv := httptest.NewServer(svc.Handler())
	return &env{svc: svc, srv: srv, client: srv.Client()}, nil
}

// close stops the server and the service; a nil env (a setup that
// failed before it existed) is a no-op.
func (e *env) close() error {
	if e == nil {
		return nil
	}
	e.srv.Close()
	return e.svc.Close()
}

// do sends one request and decodes a 2xx JSON reply into out.
func (e *env) do(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, e.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading reply: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding reply: %w", method, path, err)
	}
	return nil
}

func (e *env) post(path string, body []byte, out any) error {
	return e.do(http.MethodPost, path, body, out)
}

// joinReply is the part of a /v1/join/count or /v1/geojoin/count reply
// the benchmark checks and counts.
type joinReply struct {
	Results     int64  `json:"results"`
	Checksum    string `json:"checksum"`
	PlanCache   string `json:"plan_cache"`
	ReplicatedR int64  `json:"replicated_r"`
	ReplicatedS int64  `json:"replicated_s"`
	TilesX      int    `json:"tiles_x"`
	TilesY      int    `json:"tiles_y"`
	JoinID      int64  `json:"join_id"`
}

// check compares a reply with the oracle's answer and, when cache is
// not empty, with the expected plan-cache outcome.
func (r *joinReply) check(want answer, cache string) error {
	if r.Results != want.results || (want.checksum != "" && r.Checksum != want.checksum) {
		return fmt.Errorf("wrong answer: got %d/%s, want %s", r.Results, r.Checksum, want)
	}
	if cache != "" && r.PlanCache != cache {
		return fmt.Errorf("plan cache %q, want %q", r.PlanCache, cache)
	}
	return nil
}

// traceNode mirrors one node of GET /v1/joins/{id}/trace.
type traceNode struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs"`
	Children []traceNode    `json:"children"`
}

// joinCounts reads the exact per-join counts of a finished join: its
// shuffle bytes from the retained trace and its grid cells from the
// plan span (geometry joins report their tile grid in the reply).
func (e *env) joinCounts(r joinReply) (shuffle, cells float64, err error) {
	var tr struct {
		Skew struct {
			ShuffleBytes int64 `json:"shuffle_bytes"`
		} `json:"skew"`
		Tree []traceNode `json:"tree"`
	}
	if err := e.do(http.MethodGet, fmt.Sprintf("/v1/joins/%d/trace", r.JoinID), nil, &tr); err != nil {
		return 0, 0, err
	}
	cells = float64(r.TilesX * r.TilesY)
	var walk func(ns []traceNode)
	walk = func(ns []traceNode) {
		for _, n := range ns {
			if c, ok := n.Attrs["cells"].(float64); ok && n.Name == "plan" {
				cells = c
			}
			walk(n.Children)
		}
	}
	walk(tr.Tree)
	return float64(tr.Skew.ShuffleBytes), cells, nil
}

// liveHeapMB is HeapAlloc after forced collections: the second GC also
// empties the sync.Pool victim caches, so the figure is what the service
// retains, not what the last request left in pools.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	lat    []float64 // per-op latency, ms
	dur    time.Duration
	next   int // index of the first op not run
	failed int64
	err    error // first failure
}

// closedLoop runs one client: the next op starts when the previous one
// returned, until d has elapsed. ops are numbered from first.
func closedLoop(d time.Duration, first int, op func(i int) (time.Duration, error)) loopResult {
	lr := loopResult{next: first}
	start := time.Now()
	for ; time.Since(start) < d; lr.next++ {
		dt, err := op(lr.next)
		if err != nil {
			lr.failed++
			if lr.err == nil {
				lr.err = fmt.Errorf("op %d: %w", lr.next, err)
			}
			continue
		}
		lr.lat = append(lr.lat, float64(dt)/1e6)
	}
	lr.dur = time.Since(start)
	return lr
}

// opsPerSec is the rate of correctly completed ops.
func (lr loopResult) opsPerSec() float64 { return float64(len(lr.lat)) / lr.dur.Seconds() }

func (lr loopResult) attempted() int64 { return int64(len(lr.lat)) + lr.failed }

// quantile is the linearly interpolated q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// procSample is a snapshot of the process counters the runtime layer
// metrics are differences of.
type procSample struct {
	cpu, gcCPU, totalCPU float64 // seconds
	mallocs, allocBytes  uint64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(runtimeSamples)
	return procSample{
		cpu:        tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		gcCPU:      runtimeSamples[0].Value.Float64(),
		totalCPU:   runtimeSamples[1].Value.Float64(),
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
	}
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// maxRSSMB is the process's peak resident set (Linux reports KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// mallocs returns the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
