package core

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"clash/internal/benchutil"
	"clash/internal/bitkey"
)

// The acceptance scenario for the routing perf work: 1k cached groups over
// full-width (64-bit) keys. BenchmarkRoute/BenchmarkActiveEntryFor run the
// trie paths.
const (
	benchKeyBits = bitkey.MaxBits
	benchGroups  = 1000
	benchKeys    = 1 << 14
)

func benchWorkload() ([]bitkey.Group, []bitkey.Key) {
	rng := rand.New(rand.NewSource(1))
	groups := benchutil.PrefixFreeGroups(rng, benchKeyBits, benchGroups)
	keys := benchutil.RandomKeys(rng, benchKeyBits, benchKeys)
	return groups, keys
}

func benchServerID(i int) ServerID {
	return ServerID([]string{"s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"}[i%8])
}

func BenchmarkRoute(b *testing.B) {
	groups, keys := benchWorkload()
	r := NewRouter(benchKeyBits)
	for i, g := range groups {
		r.Learn(g, benchServerID(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := r.Route(keys[i%len(keys)]); !ok {
			b.Fatal("miss on a complete partition")
		}
	}
}

func BenchmarkRouteParallel(b *testing.B) {
	groups, keys := benchWorkload()
	r := NewRouter(benchKeyBits)
	for i, g := range groups {
		r.Learn(g, benchServerID(i))
	}
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 7919 // offset goroutines into the key stream
		for pb.Next() {
			r.Route(keys[i%uint64(len(keys))])
			i++
		}
	})
}

func benchTable(b *testing.B, groups []bitkey.Group) *Table {
	b.Helper()
	tab, err := NewTable(benchKeyBits)
	if err != nil {
		b.Fatal(err)
	}
	for _, g := range groups {
		tab.put(&Entry{Group: g, Active: true})
	}
	return tab
}

func BenchmarkActiveEntryFor(b *testing.B) {
	groups, keys := benchWorkload()
	tab := benchTable(b, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tab.activeEntryFor(keys[i%len(keys)]); !ok {
			b.Fatal("miss on a complete partition")
		}
	}
}

func BenchmarkActiveEntryForParallel(b *testing.B) {
	groups, keys := benchWorkload()
	tab := benchTable(b, groups)
	var cursor atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := cursor.Add(1) * 7919
		for pb.Next() {
			tab.activeEntryFor(keys[i%uint64(len(keys))])
			i++
		}
	})
}

func BenchmarkLongestPrefixMatch(b *testing.B) {
	groups, keys := benchWorkload()
	tab := benchTable(b, groups)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.longestPrefixMatch(keys[i%len(keys)])
	}
}

func BenchmarkForgetServer(b *testing.B) {
	groups, _ := benchWorkload()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := NewRouter(benchKeyBits)
		for j, g := range groups {
			r.Learn(g, benchServerID(j))
		}
		b.StartTimer()
		r.ForgetServer(benchServerID(0))
	}
}
