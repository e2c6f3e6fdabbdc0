package mem

import (
	"math/rand"
	"testing"
)

func TestAddrIndexBasic(t *testing.T) {
	var x AddrIndex
	if _, ok := x.Get(32); ok {
		t.Fatal("empty index reported a hit")
	}
	x.Set(32, 1)
	x.Set(64, 2)
	x.Set(32, 3) // overwrite
	if x.Len() != 2 {
		t.Fatalf("Len = %d, want 2", x.Len())
	}
	if id, ok := x.Get(32); !ok || id != 3 {
		t.Fatalf("Get(32) = %d,%v, want 3,true", id, ok)
	}
	if id, ok := x.Get(64); !ok || id != 2 {
		t.Fatalf("Get(64) = %d,%v, want 2,true", id, ok)
	}
	if !x.Del(32) || x.Del(32) {
		t.Fatal("Del(32) should succeed exactly once")
	}
	if _, ok := x.Get(32); ok {
		t.Fatal("deleted key still present")
	}
	if id, ok := x.Get(64); !ok || id != 2 {
		t.Fatal("Del disturbed an unrelated key")
	}
	x.Reset()
	if x.Len() != 0 {
		t.Fatalf("Len after Reset = %d", x.Len())
	}
	if _, ok := x.Get(64); ok {
		t.Fatal("Reset left a key visible")
	}
}

// TestAddrIndexVsMap drives the index and a Go map through the same random
// operation stream — inserts, overwrites, deletes, resets, reservations —
// and checks they agree after every step. Line-stride addresses from a small
// range force probe-chain collisions so backward-shift deletion is exercised.
func TestAddrIndexVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var x AddrIndex
	ref := map[Addr]int32{}
	keys := make([]Addr, 0, 512)
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // insert/overwrite
			a := Addr(rng.Intn(400)) * 32
			v := int32(rng.Intn(1 << 20))
			old, had := ref[a]
			if !had {
				keys = append(keys, a)
			}
			if rng.Intn(2) == 0 {
				ref[a] = v
				x.Set(a, v)
				break
			}
			// Insert keeps a present id and stores v only for a new key.
			got, ok := x.Insert(a, v)
			if ok != had || (had && got != old) || (!had && got != v) {
				t.Fatalf("step %d: Insert(%d, %d) = %d,%v, want present %v (id %d)", step, a, v, got, ok, had, old)
			}
			if !had {
				ref[a] = v
			}
		case op < 8: // delete (sometimes a missing key)
			a := Addr(rng.Intn(500)) * 32
			_, want := ref[a]
			if got := x.Del(a); got != want {
				t.Fatalf("step %d: Del(%d) = %v, want %v", step, a, got, want)
			}
			delete(ref, a)
		case op < 9: // point lookup of a random known key
			if len(keys) == 0 {
				continue
			}
			a := keys[rng.Intn(len(keys))]
			wantV, want := ref[a]
			gotV, got := x.Get(a)
			if got != want || (got && gotV != wantV) {
				t.Fatalf("step %d: Get(%d) = %d,%v, want %d,%v", step, a, gotV, got, wantV, want)
			}
		default: // occasional wholesale reset, sometimes with a reservation
			x.Reset()
			ref = map[Addr]int32{}
			keys = keys[:0]
			if rng.Intn(2) == 0 {
				n := rng.Intn(600)
				x.Reserve(n)
				if len(x.tab) < 2*n {
					t.Fatalf("step %d: Reserve(%d) left %d slots", step, n, len(x.tab))
				}
			}
		}
		if x.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, x.Len(), len(ref))
		}
	}
	for a, wantV := range ref {
		if gotV, ok := x.Get(a); !ok || gotV != wantV {
			t.Fatalf("final: Get(%d) = %d,%v, want %d,true", a, gotV, ok, wantV)
		}
	}
}

func TestAddrIndexGenerationWrap(t *testing.T) {
	var x AddrIndex
	x.Set(96, 7)
	x.gen = ^uint32(0) // force the wrap path on the next Reset
	x.Reset()
	if x.gen != 1 {
		t.Fatalf("gen after wrap = %d, want 1", x.gen)
	}
	if _, ok := x.Get(96); ok {
		t.Fatal("stale entry visible after generation wrap")
	}
	x.Set(96, 9)
	if id, ok := x.Get(96); !ok || id != 9 {
		t.Fatalf("Get after wrap = %d,%v, want 9,true", id, ok)
	}
}

// Appended samples stay in Append order and are found by Get once it
// indexes them, also samples appended after an earlier Get; Reset empties
// the set.
func TestReadSetAppendIndexesLazily(t *testing.T) {
	var r ReadSet
	for round := 0; round < 3; round++ {
		r.Reset()
		if r.Len() != 0 {
			t.Fatalf("round %d: Len after Reset = %d", round, r.Len())
		}
		for i := 0; i < 100; i++ {
			r.Append(Addr(4*i), Version(i+round))
		}
		if v, ok := r.Get(Addr(4 * 50)); !ok || v != Version(50+round) {
			t.Fatalf("round %d: Get after Appends = %d,%v", round, v, ok)
		}
		for i := 100; i < 120; i++ {
			r.Append(Addr(4*i), Version(i+round))
		}
		for i, s := range r.Samples() {
			if s.Addr != Addr(4*i) || s.Version != Version(i+round) {
				t.Fatalf("round %d: sample %d = %+v", round, i, s)
			}
			if v, ok := r.Get(s.Addr); !ok || v != s.Version {
				t.Fatalf("round %d: sample %d: Get = %d,%v, want %d", round, i, v, ok, s.Version)
			}
		}
		if _, ok := r.Get(2); ok {
			t.Fatalf("round %d: Get of an unread address succeeded", round)
		}
		if r.Len() != 120 {
			t.Fatalf("round %d: Len = %d, want 120", round, r.Len())
		}
	}
}

// After ReserveSamples(n), n Appends allocate nothing: the unindexed path
// never builds the index.
func TestReadSetAppendAllocs(t *testing.T) {
	const n, runs = 300, 5
	sets := make([]ReadSet, runs+1) // AllocsPerRun adds one warm-up run
	for i := range sets {
		sets[i].ReserveSamples(n)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		r := &sets[next]
		next++
		for i := 0; i < n; i++ {
			r.Append(Addr(4*i), Version(i))
		}
	})
	if allocs != 0 {
		t.Fatalf("%d Appends after ReserveSamples(%d) allocate %.1f times, want 0", n, n, allocs)
	}
	if sets[0].Len() != n || len(sets[0].idx.tab) != 0 {
		t.Fatalf("Len = %d, index slots = %d; want %d samples and no index", sets[0].Len(), len(sets[0].idx.tab), n)
	}
}
