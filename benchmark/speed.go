package main

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This box is a few cores of a shared host: how fast it runs the same code
// drifts by tens of percent over seconds and minutes, with the neighbours'
// load. A time measured here is therefore a property of the program times a
// property of the moment. The benchmark measures the moment too: between the
// operations of every CPU-bound phase it times refWork, a fixed piece of work
// that is the benchmark's own and that no change to the program can touch,
// and reports the phase's times scaled to the speed at which refWork takes
// refNominal. Two readings of one commit then agree although the machine was
// not the same machine twice, and a program that got slower still reads
// slower, because refWork did not.

// refNominal is what one refWork takes at the speed the reported times are
// scaled to (about what it takes on this box when the host is quiet).
const refNominal = 500 * time.Microsecond

// refRounds sizes refWork to about refNominal.
const refRounds = 13

// refState is refWork's fixed input and its scratch space, built once.
var refState = func() (st struct {
	names map[string]int
	keys  []string
	order []int
	buf   []byte
	sink  uint64
}) {
	const n = 512
	st.names = make(map[string]int, n)
	for i := 0; i < n; i++ {
		k := "taxon-" + strconv.Itoa(i*7919%100003)
		st.names[k] = i
		st.keys = append(st.keys, k)
	}
	st.order = make([]int, n)
	st.buf = make([]byte, 0, 16*n)
	return st
}()

// refWork is the reference: the kind of work the program does between a
// request and its answer — probing a map of short strings, sorting, formatting
// numbers, hashing bytes — on inputs that never change. It allocates nothing,
// so that the state of the program's heap and collector does not reach it.
func refWork() {
	st := &refState
	for round := 0; round < refRounds; round++ {
		buf := st.buf[:0]
		for i, k := range st.keys {
			v := st.names[k]
			st.order[i] = (v*2654435761 + round) % 1009
			buf = strconv.AppendInt(append(buf, k...), int64(v), 10)
		}
		sort.Ints(st.order)
		h := fnv.New64a()
		h.Write(buf)
		st.sink += h.Sum64() + uint64(st.order[len(st.order)/2])
	}
}

// speedometer times refWork through one phase of an epoch.
type speedometer struct {
	mu      sync.Mutex
	samples []float64     // one refWork each, in nanoseconds
	spent   time.Duration // what the phase spent measuring
}

// tick times n refWorks.
func (s *speedometer) tick(n int) {
	for ; n > 0; n-- {
		t0 := time.Now()
		refWork()
		d := time.Since(t0)
		s.mu.Lock()
		s.samples = append(s.samples, float64(d))
		s.spent += d
		s.mu.Unlock()
	}
}

// during ticks once every interval on a goroutine of its own until the
// returned stop is called: for a phase whose operations are sent on a
// schedule, with the machine mostly idle between them.
func (s *speedometer) during(every time.Duration) (stop func()) {
	done, ended := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ended)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.tick(1)
			}
		}
	}()
	return func() { close(done); <-ended }
}

// factor is what a time measured during the phase is multiplied by to scale
// it to the reference speed: below 1 when the machine was slow. A phase that
// never ticked is reported as measured.
func (s *speedometer) factor() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 1
	}
	return float64(refNominal) / median(s.samples)
}
