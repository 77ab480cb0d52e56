package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/envsource"
	"repro/internal/fnjv"
	"repro/internal/geo"
	"repro/internal/shard"
	"repro/internal/taxonomy"
	"repro/internal/web"
)

// detectCounts is what one detection over a collection must report.
type detectCounts struct {
	Distinct, Outdated, Unknown, Unavailable int
}

// asyncOutcome is what the scheduler pool's outcome hook saw for one run.
type asyncOutcome struct {
	counts  detectCounts
	elapsed time.Duration
}

// stack is the whole system under test in one process: core.Open, the web
// server behind a loopback listener and, per workload, the scheduler pool and
// the loopback authority — wired the way cmd/fnjvweb wires them.
type stack struct {
	spec    workloadSpec
	seed    int64
	dir     string
	opts    core.Options
	species []string // the names on the records, for ?species= reads
	tenants []string // X-Tenant values the clients use; {""} when untenanted
	want    detectCounts
	rec     *recorder // nil on the timed pass

	resolver  taxonomy.Resolver
	checklist *taxonomy.Checklist
	resilient *taxonomy.ResilientResolver
	client    *taxonomy.Client
	authority *httptest.Server

	sys    *core.System
	srv    *httptest.Server
	scheds []*cluster.Scheduler

	mu       sync.Mutex
	outcomes map[string]asyncOutcome
}

// boot generates the inputs from seed, opens a fresh system in dir, loads the
// collection and starts serving.
func boot(spec workloadSpec, seed int64, dir string, rec *recorder) (*stack, error) {
	taxa, err := taxonomy.Generate(taxonomy.GeneratorSpec{
		Species:             spec.Species,
		OutdatedFraction:    spec.Outdated,
		ProvisionalFraction: 0.05,
		Seed:                seed,
	})
	if err != nil {
		return nil, err
	}
	col, err := fnjv.Generate(fnjv.CollectionSpec{Records: spec.Records, Seed: seed + 2, SyntaxErrorRate: 1e-12},
		taxa, geo.SyntheticGazetteer(40, seed+1), envsource.NewSimulator())
	if err != nil {
		return nil, err
	}
	st := &stack{
		spec:      spec,
		seed:      seed,
		dir:       dir,
		opts:      core.Options{Sync: spec.Sync, Shards: spec.Shards, CommitDelay: spec.CommitDelay},
		species:   taxa.HistoricalNames,
		tenants:   []string{""},
		rec:       rec,
		checklist: taxa.Checklist,
		resolver:  taxa.Checklist,
		outcomes:  map[string]asyncOutcome{},
	}
	st.want, err = referenceCounts(taxa)
	if err != nil {
		return nil, err
	}
	if st.want.Distinct != col.DistinctSpecies {
		return nil, fmt.Errorf("generated collection has %d distinct names, taxonomy %d", col.DistinctSpecies, st.want.Distinct)
	}
	if spec.Tenants > 0 {
		st.tenants = tenantsOnDistinctShards(spec.Tenants, spec.Shards)
	}

	if spec.Authority {
		// The paper's Listing 1 authority: answers in 2 ms, refuses one
		// request in ten. Retries: 6 and the resilient stack are what
		// fnjvweb -authority builds; the 1 ms TTL keeps every run cold.
		svc := taxonomy.NewService(taxa.Checklist,
			taxonomy.WithLatency(2*time.Millisecond), taxonomy.WithAvailability(0.9, seed))
		st.authority = httptest.NewServer(svc)
		st.client = taxonomy.NewClient(st.authority.URL)
		st.client.Retries = 6
		st.resilient = taxonomy.NewResilientResolver(st.client, taxonomy.ResilienceOptions{TTL: time.Millisecond})
		st.resolver = st.resilient
	}
	if rec != nil {
		st.resolver = traceResolver(st.resolver, rec)
	}

	if st.sys, err = core.Open(dir, st.opts); err != nil {
		st.close()
		return nil, err
	}
	for _, tenant := range st.tenants {
		records := col.Records
		if tenant != "" {
			records = make([]*fnjv.Record, len(col.Records))
			for i, r := range col.Records {
				owned := *r
				owned.ID = tenant + shard.Sep + r.ID
				records[i] = &owned
			}
		}
		if err := st.sys.Records.PutAll(records); err != nil {
			st.close()
			return nil, err
		}
	}
	if err := st.serve(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// referenceCounts resolves every name on the records directly against the
// checklist, the way the summarize step classifies them.
func referenceCounts(taxa *taxonomy.Generated) (detectCounts, error) {
	want := detectCounts{Distinct: len(taxa.HistoricalNames)}
	for _, name := range taxa.HistoricalNames {
		res, err := taxa.Checklist.Resolve(context.Background(), name)
		switch {
		case errors.Is(err, taxonomy.ErrUnknownName):
			want.Unknown++
		case err != nil:
			return want, err
		case res.Status == taxonomy.StatusSynonym || res.Status == taxonomy.StatusProvisional:
			want.Outdated++
		}
	}
	return want, nil
}

// tenantsOnDistinctShards probes the ring the cluster builds, as
// cmd/experiments/load.go does, for tenant names that each own a shard.
func tenantsOnDistinctShards(tenants, shards int) []string {
	ring := shard.NewRing(shards, 0)
	taken := map[int]bool{}
	var names []string
	for i := 0; len(names) < tenants && i < 10000; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		owner := ring.Owner(shard.RouteKey(name + shard.Sep + "x"))
		if !taken[owner] {
			taken[owner] = true
			names = append(names, name)
		}
	}
	return names
}

// serve puts the web server, and the scheduler pool when the workload has
// one, in front of st.sys.
func (st *stack) serve() error {
	if st.rec != nil {
		st.decorate()
	}
	wsys := &web.System{Core: st.sys, Resolver: st.resolver, Checklist: st.checklist, Resilient: st.resilient}
	if st.spec.Tenants > 0 {
		// Limits no client reaches: the gate runs, nothing is throttled.
		wsys.Quotas = shard.NewQuotas(shard.QuotaOptions{Rate: 1e6, Burst: 1e6})
	}
	for i := 0; i < st.spec.Schedulers; i++ {
		name := fmt.Sprintf("bench-%d", i)
		backend := st.sys.SchedulerBackend(st.resolver, core.RunOptions{Orchestrator: name}, func(out *core.DetectionOutcome) {
			st.mu.Lock()
			st.outcomes[out.RunID] = asyncOutcome{
				counts:  detectCounts{out.DistinctNames, out.Outdated, out.Unknown, out.Unavailable},
				elapsed: out.Elapsed,
			}
			st.mu.Unlock()
			wsys.RecordOutcome(out)
		})
		// TTL and Poll stay at their defaults: the pool's timers are part of
		// what this workload measures.
		sched := &cluster.Scheduler{Name: name, Leases: st.sys.Leases, Backend: backend, Seed: st.seed + int64(i)}
		if err := sched.Start(); err != nil {
			return err
		}
		st.scheds = append(st.scheds, sched)
	}
	if len(st.scheds) > 0 {
		wsys.Scheduler = st.scheds[0]
	}
	st.srv = httptest.NewServer(web.NewServer(wsys))
	return nil
}

// decorate puts the timing decorators on the interface fields of st.sys.
func (st *stack) decorate() {
	st.sys.Provenance = tracedRepo{Repo: st.sys.Provenance, rec: st.rec}
	st.sys.Records = traceRecords(st.sys.Records, st.rec)
	st.sys.Traces = tracedTraces{TraceStore: st.sys.Traces, rec: st.rec}
}

// halt stops serving; the system stays open.
func (st *stack) halt() {
	if st.srv != nil {
		st.srv.Close()
		st.srv = nil
	}
	for _, s := range st.scheds {
		s.Stop()
	}
	st.scheds = nil
}

// An epoch restarts its system until it has done so maxReopens times or spent
// reopenBudget at it: a small store reopens in tens of milliseconds, and one
// such reading is mostly noise.
const (
	maxReopens   = 12
	reopenBudget = time.Second
)

// reopen closes the system and times core.Open on the same directory with the
// same options — the restart cost of everything the workload wrote — scaled by
// the machine's speed just before and after (see speed.go). It returns the
// lower quartile of its readings, which only ever err on the slow side, and
// the directory's size once closed.
func (st *stack) reopen() (took time.Duration, size int64, err error) {
	st.halt()
	var readings []float64
	for spent := time.Duration(0); len(readings) == 0 || (len(readings) < maxReopens && spent < reopenBudget); {
		err := st.sys.Close()
		st.sys = nil
		if err != nil {
			return 0, 0, err
		}
		if len(readings) == 0 {
			if size, err = dirSize(st.dir, ""); err != nil {
				return 0, 0, err
			}
		}
		var speed speedometer
		speed.tick(speedTicks)
		t0 := time.Now()
		sys, err := core.Open(st.dir, st.opts)
		if err != nil {
			return 0, 0, err
		}
		d := time.Since(t0)
		speed.tick(speedTicks)
		st.sys = sys
		spent += d
		readings = append(readings, float64(d)*speed.factor())
	}
	return time.Duration(lowerQuartile(readings)), size, st.serve()
}

// close stops everything the stack started. Safe on a partly booted stack.
func (st *stack) close() {
	st.halt()
	if st.sys != nil {
		st.sys.Close()
		st.sys = nil
	}
	if st.authority != nil {
		st.authority.Close()
		st.authority = nil
	}
}

// dirSize sums the regular files under dir; with name set, only files of
// that base name.
func dirSize(dir, name string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || (name != "" && d.Name() != name) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
