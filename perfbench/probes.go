package main

import (
	"fmt"

	"spatialjoin"
	"spatialjoin/internal/agreements"
	"spatialjoin/internal/core"
	"spatialjoin/internal/grid"
	"spatialjoin/internal/service"
	"spatialjoin/internal/tuple"
)

// Layer probes shared by the traced passes: direct calls into the plan
// and execution layers, each inside a benchmark span and checked.

// inTurn runs the calls in order for even requests and in reverse for
// odd ones, so that what one call leaves behind (warm caches, a GC it
// set off) does not bias the per-request differences one way.
func inTurn(req int, calls ...func() error) error {
	for k := range calls {
		c := calls[k]
		if req%2 == 1 {
			c = calls[len(calls)-1-k]
		}
		if err := c(); err != nil {
			return err
		}
	}
	return nil
}

// joinInputs are the inputs the service plans a join of two registered
// datasets with: their tuples, and presample draws the samples it uses.
type joinInputs struct{ r, s []spatialjoin.Tuple }

func registered(svc *service.Service, r, s string) (joinInputs, error) {
	rd, err := svc.Registry.Get(r)
	if err != nil {
		return joinInputs{}, err
	}
	sd, err := svc.Registry.Get(s)
	if err != nil {
		return joinInputs{}, err
	}
	return joinInputs{rd.Tuples, sd.Tuples}, nil
}

// presample draws the service's samples of both inputs (fraction 0 → the
// default, seeds 0 and 1).
func (in joinInputs) presample() [2][]spatialjoin.Tuple {
	return [2][]spatialjoin.Tuple{spatialjoin.Sample(in.r, 0, 0), spatialjoin.Sample(in.s, 0, 1)}
}

// executeProbe times PreparedJoin.Execute with the facade tracing its
// partition tasks, checks the answer, and records the dpe layer's
// task-sum, speedup, straggler and allocation samples.
func executeProbe(rec *recorder, parent, req int, p *spatialjoin.PreparedJoin, want answer) error {
	tr := spatialjoin.NewTracer()
	var rep *spatialjoin.Report
	m0 := mallocs()
	id, err := rec.timed("core.Execute", parent, req, func(int) error {
		var err error
		rep, err = p.Execute(spatialjoin.ExecOptions{Trace: tr})
		return err
	})
	allocs := mallocs() - m0
	if err != nil {
		return err
	}
	got := answer{results: rep.Results, checksum: fmt.Sprintf("%016x", rep.Checksum)}
	if got != want {
		return fmt.Errorf("PreparedJoin.Execute: got %s, want %s", got, want)
	}
	rec.adopt(tr, "core.Execute", id, req)
	var taskSum int64
	for _, s := range tr.Spans() {
		if s.Name == "task" && s.Done > s.Start {
			taskSum += s.Done - s.Start
		}
	}
	rec.note("dpe.task_sum", float64(taskSum)/1e6)
	rec.note("dpe.speedup", float64(taskSum)/1e6/rec.last("core.Execute"))
	rec.note("dpe.straggler", tr.Skew().StragglerRatio)
	rec.note("dpe.allocs", float64(allocs))
	return nil
}

// planProbes times the plan layers one by one on in at eps with the
// given presamples: grid stats, agreements, the facade's Prepare (with
// its replicate and shuffle spans adopted) and Execute, which must
// return want.
func planProbes(rec *recorder, root, req int, in joinInputs, smp [2][]spatialjoin.Tuple, eps float64, want answer) (*spatialjoin.PreparedJoin, error) {
	var st *grid.Stats
	g := grid.New(core.DataBounds(nil, in.r, in.s), eps, 2)
	if _, err := rec.timed("grid.Stats", root, req, func(int) error {
		st = grid.NewStats(g)
		st.AddAll(tuple.R, smp[0])
		st.AddAll(tuple.S, smp[1])
		return nil
	}); err != nil {
		return nil, err
	}
	if _, err := rec.timed("agreements.BuildOrdered", root, req, func(int) error {
		agreements.BuildOrdered(st, agreements.LPiB, agreements.OrderPaper)
		return nil
	}); err != nil {
		return nil, err
	}
	tr := spatialjoin.NewTracer()
	var plan *spatialjoin.PreparedJoin
	id, err := rec.timed("core.Prepare", root, req, func(int) error {
		var err error
		plan, err = spatialjoin.Prepare(in.r, in.s, spatialjoin.Options{
			Eps: eps, PresampledR: smp[0], PresampledS: smp[1], Trace: tr,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	rec.adopt(tr, "core.Prepare", id, req)
	return plan, executeProbe(rec, root, req, plan, want)
}
