package scratch

import (
	"sync"
	"testing"
)

func TestGetReturnsZeroedLength(t *testing.T) {
	s := Floats(8)
	if len(s) != 8 {
		t.Fatalf("len = %d, want 8", len(s))
	}
	for i := range s {
		s[i] = float64(i + 1)
	}
	PutFloats(s)
	// Whatever comes back — recycled or fresh — must read as zeros.
	r := Floats(8)
	for i, v := range r {
		if v != 0 {
			t.Fatalf("recycled slice not zeroed at %d: %g", i, v)
		}
	}
	PutFloats(r)
}

func TestGetZeroForAppendUse(t *testing.T) {
	s := Floats(0)
	if len(s) != 0 {
		t.Fatalf("len = %d, want 0", len(s))
	}
	s = append(s, 1, 2, 3)
	PutFloats(s)
}

func TestIntsIndependentOfFloats(t *testing.T) {
	is := Ints(4)
	if len(is) != 4 {
		t.Fatalf("len = %d, want 4", len(is))
	}
	for i, v := range is {
		if v != 0 {
			t.Fatalf("Ints not zeroed at %d: %d", i, v)
		}
	}
	PutInts(is)
}

func TestTypedPoolGrowsCapacity(t *testing.T) {
	var p Pool[int32]
	small := p.Get(2)
	p.Put(small)
	big := p.Get(1024)
	if len(big) != 1024 {
		t.Fatalf("len = %d, want 1024", len(big))
	}
	p.Put(big)
	again := p.Get(512)
	if len(again) != 512 {
		t.Fatalf("len = %d, want 512", len(again))
	}
	p.Put(again)
}

// TestConcurrentGetPut exercises the pool from many goroutines; run under
// -race this proves Get/Put need no external locking.
func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := Floats(16 + g)
				for k := range s {
					if s[k] != 0 {
						t.Errorf("dirty slice from pool")
						return
					}
					s[k] = float64(g)
				}
				PutFloats(s)
			}
		}(g)
	}
	wg.Wait()
}

// TestRoundTripAllocatesNothing: once a pool is warm, a Get/Put round trip
// reuses both the slice and the box that holds it in the pool.
func TestRoundTripAllocatesNothing(t *testing.T) {
	var p Pool[float64]
	p.Put(p.Get(64))
	allocs := testing.AllocsPerRun(1000, func() {
		p.Put(p.Get(64))
	})
	if allocs != 0 {
		t.Fatalf("a Get(64)/Put round trip allocates %v times on average, want 0", allocs)
	}
}
