package main

import (
	"context"
	"fmt"
	"reflect"

	"mnemo"
	"mnemo/internal/core"
	"mnemo/internal/server"
)

// outcome is everything one consultation answers. Repeats of the same
// cell under the same seed must return deeply equal outcomes.
type outcome struct {
	Reports    []*core.Report
	Placements []server.Placement
	Validation [][]core.ValidationPoint
	Adaptive   *mnemo.AdaptiveComparison
	// Measures is the session's baseline measurement count (must be 1).
	Measures int
}

// consult runs one whole consultation of the cell — Measure → Analyze →
// Estimate → Advise → Place → Validate, then MeasureAdaptive on adaptive
// cells — calling each stage through the public API, with a span around
// each call when tr is non-nil. obs, when non-nil, is the consultation's
// observability sink.
func consult(ctx context.Context, c *cell, tr *tracer, id int, obs *mnemo.Sink) (*outcome, error) {
	root := tr.start("consultation", 0, id)
	defer tr.end(root)
	stage := func(name string, fn func() error) error {
		sp := tr.start(name, root, id)
		defer tr.end(sp)
		return fn()
	}
	opts := c.Opts
	opts.Obs = obs

	var sess *mnemo.Session
	if err := stage("core.new_session", func() (err error) {
		sess, err = mnemo.NewSession(c.W, opts)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("core.measure", func() error {
		_, err := sess.Measure(ctx)
		return err
	}); err != nil {
		return nil, err
	}
	pols := make([]mnemo.TieringPolicy, len(c.Policies))
	ords := make([]core.Ordering, len(c.Policies))
	curves := make([]*core.Curve, len(c.Policies))
	for i, name := range c.Policies {
		if err := stage("core.analyze", func() (err error) {
			if pols[i], err = mnemo.PolicyByName(name, opts.Seed); err != nil {
				return err
			}
			ords[i], err = sess.Analyze(ctx, pols[i])
			return err
		}); err != nil {
			return nil, err
		}
	}
	for i := range pols {
		if err := stage("core.estimate", func() (err error) {
			curves[i], err = sess.Estimate(ctx, pols[i])
			return err
		}); err != nil {
			return nil, err
		}
	}
	out := &outcome{}
	if err := stage("core.advise", func() (err error) {
		out.Reports, err = sess.Compare(ctx, opts.SLO, pols...)
		return err
	}); err != nil {
		return nil, err
	}
	for i, rep := range out.Reports {
		if rep.Advice == nil {
			return nil, fmt.Errorf("policy %s: no advice", c.Policies[i])
		}
		if err := stage("core.place", func() error {
			pl, err := sess.Place(ctx, pols[i], rep.Advice.Point)
			out.Placements = append(out.Placements, pl)
			return err
		}); err != nil {
			return nil, err
		}
	}
	cfg := sess.Config()
	for i := range pols {
		if err := stage("core.validate", func() error {
			pts, err := core.Validate(ctx, cfg, c.W, curves[i], ords[i], validatePoints)
			out.Validation = append(out.Validation, pts)
			return err
		}); err != nil {
			return nil, err
		}
	}
	if c.Adaptive {
		if err := stage("mnemo.measure_adaptive", func() (err error) {
			out.Adaptive, err = mnemo.MeasureAdaptive(ctx, c.W, out.Reports[0], opts)
			return err
		}); err != nil {
			return nil, err
		}
	}
	out.Measures = sess.MeasureCount()
	return out, nil
}

// simRequests counts the simulated requests the consultation replayed:
// every repetition of every baseline, validation and adaptive execution.
func (o *outcome) simRequests() int64 {
	reps := func(st mnemo.RunStats) int64 {
		n := st.RunsUsed
		if n == 0 {
			n = 1
		}
		return int64(st.Requests) * int64(n)
	}
	var total int64
	if len(o.Reports) > 0 {
		b := o.Reports[0].Baselines // one measurement shared by every policy
		total += reps(b.Fast) + reps(b.Slow)
	}
	for _, pts := range o.Validation {
		for _, p := range pts {
			total += reps(p.Measured)
		}
	}
	if a := o.Adaptive; a != nil {
		total += reps(a.Static) + reps(a.Adaptive)
	}
	return total
}

// estErrors returns |throughput error| of every validation point, the
// paper's Fig 8a quantity.
func (o *outcome) estErrors() []float64 {
	var out []float64
	for _, pts := range o.Validation {
		out = append(out, core.AbsErrors(pts)...)
	}
	return out
}

// check is the consultation's output check: one baseline measurement,
// an adaptive cell that really migrated, and — against the cell's first
// outcome, ref — a bit-identical answer.
func check(c *cell, ref, got *outcome) error {
	if got.Measures != 1 {
		return fmt.Errorf("%s: %d baseline measurements, want 1", c.Name, got.Measures)
	}
	if c.Adaptive {
		a := got.Adaptive
		if a == nil || a.Adaptive.Epochs == 0 || a.Adaptive.MigratedBytes == 0 {
			return fmt.Errorf("%s: adaptive run served no epochs or migrated nothing", c.Name)
		}
	}
	if ref != nil && !reflect.DeepEqual(ref, got) {
		return fmt.Errorf("%s: answer differs from the cell's first consultation", c.Name)
	}
	return nil
}
