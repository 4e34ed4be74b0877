package main

import (
	"fmt"
	"os"
	"sync/atomic"

	"semplar/internal/trace"
)

// replayClock is the clock of the traced pass's trace.Tracer. Live, it reads
// the benchmark clock, so the program's own spans share a time base with the
// probes'. At export the probe spans — which were kept in memory, not in the
// tracer — are replayed through Begin/End with the clock scripted to each
// span's recorded start and end, and the existing WriteChrome does the rest.
type replayClock struct{ at atomic.Int64 }

func (c *replayClock) read() int64 {
	if t := c.at.Load(); t != 0 {
		return t
	}
	return now()
}

// parentSeam is the seam whose span caused a span of the given kind; with
// the op id it names the parent span.
func parentSeam(k spanKind) string {
	switch {
	case k <= aWait:
		return ""
	case k <= dWritev:
		return "A"
	case k <= cRead:
		return "D"
	case k <= sWrite:
		return "C"
	default:
		return "S"
	}
}

// writeTrace writes the probes' spans, and whatever the program's own
// tracer recorded during the pass, as one Chrome trace-event file.
func (p *pass) writeTrace(path string) error {
	tr, clk := p.tracer, p.clock
	emit := func(server bool, lane int64, s span) {
		clk.at.Store(s.start)
		begin := tr.Begin
		if server {
			begin = tr.BeginServer
		}
		sp := begin("probe", spanNames[s.kind], lane)
		clk.at.Store(s.end)
		args := []trace.Arg{trace.Int("op", int64(s.op)), trace.Int("bytes", int64(s.n))}
		if par := parentSeam(s.kind); par != "" {
			args = append(args, trace.Str("parent", par))
		}
		sp.End(args...)
	}
	app := tr.NextID()
	for i, smp := range p.samples {
		kind := aRead
		if smp.write {
			kind = aWrite
		}
		emit(false, app, span{start: smp.start, end: smp.end, op: int32(i + 1), n: smp.bytes, kind: kind})
		if p.w.async {
			st := p.steps[i]
			emit(false, app, span{start: smp.start, end: st.submitEnd, op: int32(i + 1), kind: aSubmit})
			emit(false, app, span{start: st.waitStart, end: st.waitEnd, op: int32(i + 1), kind: aWait})
		}
	}
	drv := tr.NextID()
	for _, s := range p.rec.driver.spans {
		emit(false, drv, s)
	}
	for _, l := range p.rec.order {
		c, srv := tr.NextID(), tr.NextID()
		for _, s := range l.client.spans {
			emit(false, c, s)
		}
		for _, s := range l.server.spans {
			emit(true, srv, s)
		}
	}
	for _, l := range p.rec.stores {
		id := tr.NextID()
		for _, s := range l.spans {
			emit(true, id, s)
		}
	}
	clk.at.Store(0)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.WriteChrome(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}
