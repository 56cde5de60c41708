package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"confaudit/internal/logmodel"
	"confaudit/internal/workload"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wlIngest = "ingest"
	wlAudit  = "audit"
)

var workloadNames = []string{wlIngest, wlAudit}

// users is how many distinct ids the generator draws from.
const users = 50

// Every run sets up setups times, paces its open loop at pacedRate
// records per second summed over both sessions (about a quarter of the
// unpaced peak here), and redeploys redeploys times.
const (
	setups    = 3
	pacedRate = 2000
	redeploys = 5
)

// plan sizes one workload's phases for a run of the given length. Both
// workloads run every phase, so every end-to-end metric is measured on
// each; the phases that are not the workload's subject are short probes.
//
//	setup:   keygen + deploy + unpaced preload
//	solo:    closed-loop audit cycles over the preload, nothing writing
//	paced:   open-loop appends at pacedRate from two sessions
//	unpaced: appends as fast as the two sessions are admitted
//	replay:  redeploy over the same data dirs
type plan struct {
	preload    int
	soloCycles int           // minimum audit cycles over the preload
	soloFor    time.Duration // keep cycling until this much time has passed
	pacedFor   time.Duration
	unpaced    int
}

func planFor(name string, seconds int) (plan, error) {
	s := time.Duration(seconds) * time.Second
	switch name {
	case wlIngest:
		// Write-only subject; the audit probe runs first, over a small
		// preload.
		return plan{preload: 1000, soloCycles: 20, pacedFor: s * 27 / 100, unpaced: 350 * seconds}, nil
	case wlAudit:
		// Read-only subject over a 4,000-record preload; the write probes
		// run after the audit loop so that it sees a quiet store.
		return plan{preload: 4000, soloCycles: 3, soloFor: s * 60 / 100, pacedFor: s * 7 / 100, unpaced: 130 * seconds}, nil
	}
	return plan{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// inputs are one run's generated records, split by phase. The paced
// phase carries its seeded schedule in the writes' due times.
type inputs struct {
	part                    *logmodel.Partition
	preload, paced, unpaced []write
}

// generate builds the run's records from the seed: e-commerce records
// over ECommerceSchema(6), partitioned round-robin over four nodes.
func generate(p plan, seed uint64) (*inputs, error) {
	schema, err := workload.ECommerceSchema(6)
	if err != nil {
		return nil, err
	}
	part, err := workload.RoundRobinPartition(schema, 4)
	if err != nil {
		return nil, err
	}
	nPaced := int(pacedRate * p.pacedFor.Seconds())
	recs := workload.New(seed).Transactions(schema, p.preload+nPaced+p.unpaced, users)
	in := &inputs{
		part:    part,
		preload: make([]write, p.preload),
		paced:   make([]write, nPaced),
		unpaced: make([]write, p.unpaced),
	}
	i := 0
	for _, ws := range [][]write{in.preload, in.paced, in.unpaced} {
		for j := range ws {
			ws[j].values = recs[i]
			i++
		}
	}
	due := schedule(rand.New(rand.NewPCG(seed, 0x5c4ed)), nPaced, pacedRate)
	for j := range in.paced {
		in.paced[j].due = due[j]
	}
	return in, nil
}
