package sched

import (
	"fmt"
	"sort"

	"psbox/internal/snapshot"
)

func (t *Task) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(t.ID))
	enc.I64(int64(t.AppID))
	enc.Str(t.Name)
	enc.I64(int64(t.Core))
	enc.I64(t.Weight)
	enc.I64(int64(t.vr))
	enc.U8(uint8(t.state))
	enc.I64(int64(t.started))
	enc.I64(int64(t.cpuTime))
}

// encodeRqe writes a runqueue entity as a tagged identity: plain tasks by
// task ID, group entities by (app ID, core).
func encodeRqe(enc *snapshot.Encoder, e rqe) {
	switch x := e.(type) {
	case nil:
		enc.U8(0)
	case *Task:
		enc.U8(1)
		enc.I64(int64(x.ID))
	case *groupEntity:
		enc.U8(2)
		enc.I64(int64(x.grp.AppID))
		enc.I64(int64(x.core))
	default:
		panic(fmt.Sprintf("sched: unknown rqe type %T", e))
	}
}

func (c *coreState) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(c.id))
	enc.Len(len(c.rq))
	for _, e := range c.rq {
		encodeRqe(enc, e)
	}
	encodeRqe(enc, c.cur)
	if c.curTask == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(c.curTask.ID))
	}
	enc.I64(int64(c.lastBill))
}

func (ge *groupEntity) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(ge.core))
	enc.I64(int64(ge.vr))
	enc.I64(int64(ge.loan))
	enc.Bool(ge.want)
	enc.Bool(ge.onCPU)
	if ge.running == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(ge.running.ID))
	}
	enc.Len(len(ge.queue))
	for _, t := range ge.queue {
		enc.I64(int64(t.ID))
	}
}

func (g *Group) snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(g.AppID))
	enc.Bool(g.active)
	enc.Bool(g.resident)
	enc.Bool(g.announced)
	enc.Bool(g.gang)
	enc.I64(int64(g.gangCfg.Period))
	enc.I64(int64(g.gangCfg.Slot))
	enc.U64(g.gangTimer.Seq())
	enc.Len(len(g.pendingIPI))
	for _, h := range g.pendingIPI {
		enc.U64(h.Seq())
	}
	enc.I64(int64(g.residentTime))
	enc.I64(int64(g.residentAt))
	enc.U64(g.windows)
	enc.I64(int64(g.loanSettled))
	enc.Len(len(g.entities))
	for _, ge := range g.entities {
		ge.snapshot(enc)
	}
}

// Snapshot encodes the scheduler: every task (creation order), every
// core's runqueue, every psbox group (sorted by app ID), the resident
// group, and the scheduling metrics.
func (s *Scheduler) Snapshot(enc *snapshot.Encoder) {
	enc.I64(int64(s.nextID))
	enc.U64(s.ctxSwitches)
	enc.U64(s.shootdowns)
	enc.I64(int64(s.wakeLatTotal))
	enc.U64(s.wakeLatCount)
	pend := make([]*Task, 0, len(s.wakePending))
	for t := range s.wakePending {
		pend = append(pend, t)
	}
	sort.Slice(pend, func(i, j int) bool { return pend[i].ID < pend[j].ID })
	enc.Len(len(pend))
	for _, t := range pend {
		enc.I64(int64(t.ID))
		enc.I64(int64(s.wakePending[t]))
	}
	enc.Len(len(s.tasks))
	for _, t := range s.tasks {
		t.snapshot(enc)
	}
	enc.Len(len(s.cores))
	for _, c := range s.cores {
		c.snapshot(enc)
	}
	ids := make([]int, 0, len(s.groups))
	for id := range s.groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	enc.Len(len(ids))
	for _, id := range ids {
		s.groups[id].snapshot(enc)
	}
	if s.resident == nil {
		enc.I64(-1)
	} else {
		enc.I64(int64(s.resident.AppID))
	}
	gated := make([]int, 0, len(s.gated))
	for id := range s.gated {
		gated = append(gated, id)
	}
	sort.Ints(gated)
	enc.Len(len(gated))
	for _, id := range gated {
		enc.I64(int64(id))
	}
	enc.Len(len(s.parked))
	for _, t := range s.parked {
		enc.I64(int64(t.ID)) // park order is delivery order; encode as-is
	}
}
