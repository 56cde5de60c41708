package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/logmodel"
)

// The audit mix. The criteria are fixed so that every seed runs the
// same query shapes over its own generated records; the generator draws
// ids from 50 users, so each id matches about 2% of records.
const (
	critLocal = `id = "U1"`                     // one node, index path, no SMC
	critConj  = `protocl = "TCP" AND id = "U2"` // secure intersection P2 x P1
	critDisj  = `id = "U3" OR C1 = 20`          // secure union P1 + P0
	critXEq   = `C3 = C6`                       // cross-attribute equality P2 vs P1
	critXCmp  = `C1 < C2`                       // blind-TTP batch compare P0 vs P1
	critAgg   = `protocl = "UDP"`               // aggregate criterion
	aggAttr   = logmodel.Attr("C1")
)

// opKind names one operation of the audit loop.
type opKind string

const (
	opLocal     opKind = "query_local"
	opConj      opKind = "query_conj"
	opDisj      opKind = "query_disj"
	opXEq       opKind = "query_xeq"
	opXCmp      opKind = "query_xcmp"
	opAggregate opKind = "aggregate"
	opIntegrity opKind = "integrity_check"
	opRead      opKind = "read"
)

// fullCycle is the closed-loop cycle of the audit workload. It holds
// every operation shape: the query shapes, an aggregate, an integrity
// check and a point read. The cheap operations repeat, spread between
// the costly queries, so that every shape gets enough samples for a
// steady median within one run.
var fullCycle = []opKind{
	opLocal, opRead, opXCmp, opAggregate, opIntegrity, opConj,
	opLocal, opRead, opXCmp, opAggregate, opIntegrity, opDisj,
	opLocal, opRead, opXCmp, opAggregate, opIntegrity, opDisj,
	opLocal, opRead, opXCmp, opAggregate, opIntegrity, opXEq,
	opLocal, opRead, opXCmp, opAggregate, opIntegrity, opDisj,
	opLocal, opRead, opXCmp, opAggregate, opIntegrity, opDisj,
}

var criteria = map[opKind]string{
	opLocal: critLocal, opConj: critConj, opDisj: critDisj,
	opXEq: critXEq, opXCmp: critXCmp, opAggregate: critAgg,
}

var errMismatch = errors.New("result differs from the plaintext oracle")

// auditOp is one operation of the audit loop and what it returned.
type auditOp struct {
	kind   opKind
	issued time.Time
	took   time.Duration
	glsns  []logmodel.GLSN
	agg    float64
	target int  // preload index read or checked
	warmup bool // untimed pass before the measured cycles
	err    error
}

// auditLoop runs whole cycles, one operation at a time (a closed loop),
// until more reports that no further cycle should start.
// Reads and integrity checks target preloaded records drawn from rng.
func auditLoop(ctx context.Context, tr *tracer, parent int, sys *system, pre []write, rng *rand.Rand, more func(cycle int) bool) []auditOp {
	var ops []auditOp
	for cycle := 0; more(cycle); cycle++ {
		for i, k := range fullCycle {
			op := auditOp{kind: k, target: rng.IntN(len(pre))}
			sp := tr.start("audit."+string(k), fmt.Sprintf("c%d.%d", cycle, i), parent)
			op.issued = time.Now()
			runOp(ctx, sys, &op, pre)
			op.took = time.Since(op.issued)
			tr.end(sp)
			ops = append(ops, op)
		}
	}
	return ops
}

func runOp(ctx context.Context, sys *system, op *auditOp, pre []write) {
	w := &pre[op.target]
	switch op.kind {
	case opAggregate:
		op.agg, op.err = sys.aud.Aggregate(ctx, critAgg, audit.AggSum, aggAttr)
	case opIntegrity:
		rep, err := sys.dep.CheckIntegrity(ctx, sys.boot.Roster[0], w.glsn)
		switch {
		case err != nil:
			op.err = err
		case !rep.Clean() || rep.Checked != 1:
			op.err = fmt.Errorf("integrity of %s: %+v", w.glsn, rep)
		}
	case opRead:
		rec, err := sys.users[w.owner].Read(ctx, w.glsn)
		if err == nil && !sameValues(rec.Values, w.values) {
			err = fmt.Errorf("read %s: %w", w.glsn, errMismatch)
		}
		op.err = err
	default:
		op.glsns, op.err = sys.aud.Query(ctx, criteria[op.kind])
	}
}

func sameValues(a, b map[logmodel.Attr]logmodel.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !v.Equal(b[k]) {
			return false
		}
	}
	return true
}

// oracle is the plaintext check for query and aggregate results: an
// audit.Centralized over the same records and glsns.
type oracle struct {
	central *audit.Centralized
}

// newOracle indexes the acked writes of every phase.
func newOracle(phases ...[]write) *oracle {
	o := &oracle{central: audit.NewCentralized()}
	for _, ws := range phases {
		for i := range ws {
			if w := &ws[i]; w.err == nil {
				o.central.Store(logmodel.Record{GLSN: w.glsn, Values: w.values})
			}
		}
	}
	return o
}

// check compares one operation's result with the oracle: the same glsns
// for a query, the same value for an aggregate.
func (o *oracle) check(op *auditOp) error {
	if op.err != nil || op.kind == opRead || op.kind == opIntegrity {
		return op.err
	}
	if op.kind == opAggregate {
		want, err := o.central.Aggregate(critAgg, audit.AggSum, aggAttr)
		if err != nil {
			return err
		}
		if math.Abs(op.agg-want) > 1e-9*math.Max(1, math.Abs(want)) {
			return fmt.Errorf("aggregate %v, oracle %v: %w", op.agg, want, errMismatch)
		}
		return nil
	}
	want, err := o.central.Query(criteria[op.kind])
	if err != nil {
		return err
	}
	got := make(map[logmodel.GLSN]bool, len(op.glsns))
	for _, g := range op.glsns {
		got[g] = true
	}
	for _, g := range want {
		if !got[g] {
			return fmt.Errorf("%s: missing %s: %w", op.kind, g, errMismatch)
		}
		delete(got, g)
	}
	for g := range got {
		return fmt.Errorf("%s: unexpected %s: %w", op.kind, g, errMismatch)
	}
	return nil
}
