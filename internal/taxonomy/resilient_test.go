package taxonomy

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/resilience"
)

// resilientFixture is a live authority the tests degrade mid-flight.
type resilientFixture struct {
	svc    *Service
	server *httptest.Server
	client *Client
}

func newResilientFixture(t *testing.T, opts ...ServiceOption) *resilientFixture {
	t.Helper()
	cl := NewChecklist()
	if err := cl.Add(&Taxon{ID: "T1", Name: Name{Genus: "Hyla", Epithet: "faber"}, Status: StatusAccepted, Group: "amphibians"}); err != nil {
		t.Fatal(err)
	}
	svc := NewService(cl, opts...)
	server := httptest.NewServer(svc)
	t.Cleanup(server.Close)
	client := NewClient(server.URL)
	client.Backoff = 0 // keep outage tests fast
	return &resilientFixture{svc: svc, server: server, client: client}
}

func quickBreaker() resilience.BreakerOptions {
	return resilience.BreakerOptions{Window: 4, MinSamples: 2, FailureThreshold: 0.5, Cooldown: time.Hour}
}

func TestResilientResolverServesStaleWhenAuthorityDies(t *testing.T) {
	f := newResilientFixture(t)
	r := NewResilientResolver(f.client, ResilienceOptions{
		TTL:     time.Millisecond,
		Breaker: quickBreaker(),
	})
	ctx := context.Background()

	res, err := r.Resolve(ctx, "Hyla faber")
	if err != nil || res.Degraded {
		t.Fatalf("warm resolve: %+v, %v", res, err)
	}

	// The cached entry expires, then the authority goes dark.
	time.Sleep(5 * time.Millisecond)
	f.svc.SetAvailability(0)

	res, err = r.Resolve(ctx, "Hyla faber")
	if err != nil {
		t.Fatalf("outage resolve: %v", err)
	}
	if !res.Degraded {
		t.Fatal("stale answer not marked Degraded")
	}
	if res.Status != StatusAccepted || res.TaxonID != "T1" {
		t.Fatalf("stale answer lost content: %+v", res)
	}
	if r.Degraded() == 0 {
		t.Fatal("degraded counter not bumped")
	}

	// Enough failures trip the breaker; stale answers keep flowing without
	// touching the (dead) authority.
	for i := 0; i < 4; i++ {
		time.Sleep(2 * time.Millisecond) // let the TTL lapse each round
		if _, err := r.Resolve(ctx, "Hyla faber"); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if r.BreakerState() != resilience.Open {
		t.Fatalf("breaker state = %s", r.BreakerState())
	}
	before, _ := f.svc.Stats()
	time.Sleep(2 * time.Millisecond)
	if _, err := r.Resolve(ctx, "Hyla faber"); err != nil {
		t.Fatal(err)
	}
	after, _ := f.svc.Stats()
	if after != before {
		t.Fatalf("open breaker still let %d requests through", after-before)
	}
}

func TestResilientResolverHardMissDuringOutage(t *testing.T) {
	f := newResilientFixture(t)
	f.svc.SetAvailability(0)
	r := NewResilientResolver(f.client, ResilienceOptions{Breaker: quickBreaker()})
	_, err := r.Resolve(context.Background(), "Hyla faber")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("never-seen name during outage = %v", err)
	}
	c := r.Counters()
	if c["fallback.hard_miss"] != 1 {
		t.Fatalf("counters = %v", c)
	}
}

func TestResilientResolverUnknownNameIsAnAnswer(t *testing.T) {
	f := newResilientFixture(t)
	r := NewResilientResolver(f.client, ResilienceOptions{Breaker: quickBreaker()})
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := r.Resolve(ctx, "Missing species"); !errors.Is(err, ErrUnknownName) {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	if r.BreakerState() != resilience.Closed {
		t.Fatalf("unknown names tripped the breaker: %s", r.BreakerState())
	}
	if r.Degraded() != 0 {
		t.Fatal("unknown name served as degraded")
	}
}

func TestClientResolveHonoursContext(t *testing.T) {
	f := newResilientFixture(t, WithLatency(time.Second))
	f.client.Retries = 5
	f.client.Backoff = time.Second
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := f.client.Resolve(ctx, "Hyla faber")
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled resolve took %s (retry loop ignored ctx)", elapsed)
	}
	// Same for the batch path.
	bctx, bcancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer bcancel()
	start = time.Now()
	if _, err := f.client.BatchResolve(bctx, []string{"Hyla faber"}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("batch err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("cancelled batch took %s", elapsed)
	}
}

func TestResilientResolverBulkheadRejectionIsUnavailable(t *testing.T) {
	f := newResilientFixture(t, WithLatency(50*time.Millisecond))
	r := NewResilientResolver(f.client, ResilienceOptions{
		MaxConcurrent: 1,
		MaxWait:       time.Nanosecond,
		Breaker:       quickBreaker(),
	})
	ctx := context.Background()
	// Occupy the single slot, then race a second distinct name against it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Resolve(ctx, "Hyla faber")
	}()
	time.Sleep(10 * time.Millisecond)
	_, err := r.Resolve(ctx, "Missing species")
	<-done
	if err != nil && !errors.Is(err, ErrUnavailable) && !errors.Is(err, ErrUnknownName) {
		t.Fatalf("bulkhead rejection leaked raw error: %v", err)
	}
}

// TestResilientResolverCallerCancelIsNoOutage: a call its own caller cancels
// says nothing about the authority. Neither the call cut off at the
// authority nor the one cancelled while it waited for a bulkhead slot may
// count against the breaker or settle in the cache, so the next caller gets
// real answers: one that shares the resolver with a crashed run resolves
// its names as a fresh process would.
func TestResilientResolverCallerCancelIsNoOutage(t *testing.T) {
	f := newResilientFixture(t, WithLatency(50*time.Millisecond))
	r := NewResilientResolver(f.client, ResilienceOptions{MaxConcurrent: 1, Breaker: quickBreaker()})
	for range 4 {
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for _, name := range []string{"Hyla faber", "Missing species"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r.Resolve(ctx, name)
			}()
		}
		time.Sleep(10 * time.Millisecond) // one call at the authority, one waiting for its slot
		cancel()
		wg.Wait()
	}
	if st := r.BreakerState(); st != resilience.Closed {
		t.Fatalf("breaker %s after cancelled calls only", st)
	}
	if res, err := r.Resolve(context.Background(), "Hyla faber"); err != nil || res.Degraded {
		t.Fatalf("after cancelled calls: %+v, %v", res, err)
	}
	if _, err := r.Resolve(context.Background(), "Missing species"); !errors.Is(err, ErrUnknownName) {
		t.Fatalf("unknown name after cancelled calls: %v", err)
	}
}
