package minimap

import (
	"sync"
	"testing"

	"genasm/internal/dna"
	"genasm/internal/genome"
	"genasm/internal/readsim"
)

// longReadSet indexes a seeded genome and simulates 10 kb reads at the
// PacBio CLR error rate on it, as base codes.
func longReadSet(tb testing.TB, genomeLen, n int) (*Index, [][]byte) {
	tb.Helper()
	cfg := genome.DefaultConfig(genomeLen)
	cfg.Seed = 31
	ref := genome.Generate(cfg).Seq
	ix, err := BuildIndexRaw(ref, DefaultIndexConfig())
	if err != nil {
		tb.Fatal(err)
	}
	p := readsim.PacBioCLR()
	p.LengthSD = 0
	sims, err := readsim.Simulate(ref, n, p, 32)
	if err != nil {
		tb.Fatal(err)
	}
	reads := make([][]byte, n)
	for i, r := range sims {
		reads[i] = dna.EncodeSeq(r.Seq)
	}
	return ix, reads
}

// TestLocateAllocs pins Locate's steady-state allocations on a 10 kb
// read: the returned candidates plus the fixed cost of the three
// sort.Slice calls, whatever the read length. Seeding and chaining
// buffers come from the scratch pool.
func TestLocateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	ix, reads := longReadSet(t, 1_000_000, 1)
	opt := DefaultChainOpts()
	ix.Locate(reads[0], opt, 100) // warm the pool
	allocs := testing.AllocsPerRun(50, func() { ix.Locate(reads[0], opt, 100) })
	if allocs > 10 {
		t.Fatalf("Locate on a warm 10 kb read: %.1f allocs, want <= 10", allocs)
	}
}

// TestIndexConcurrentUse queries one Index from several goroutines at
// once; run it under -race. Each goroutine must see the serial answers.
func TestIndexConcurrentUse(t *testing.T) {
	ix, reads := longReadSet(t, 300_000, 8)
	opt := DefaultChainOpts()
	want := make([][]Candidate, len(reads))
	for i, r := range reads {
		want[i] = ix.Locate(r, opt, 100)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i := range reads {
					r := reads[(i+g)%len(reads)]
					var got []Candidate
					switch (i + round) % 3 {
					case 0:
						got = ix.Locate(r, opt, 100)
					case 1:
						got = ix.LocateRaw(dna.DecodeSeq(r), opt, 100)
					default:
						ix.Chains(r, opt)
						continue
					}
					if d := diffCandidates(got, want[(i+g)%len(reads)]); d != "" {
						t.Errorf("goroutine %d read %d: %s", g, (i+g)%len(reads), d)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkCands []Candidate

// BenchmarkLocate times Locate on seeded 10 kb / 10% error reads, one
// read per op, so ns/op and B/op are per read.
func BenchmarkLocate(b *testing.B) {
	ix, reads := longReadSet(b, 4_000_000, 32)
	opt := DefaultChainOpts()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkCands = ix.Locate(reads[i%len(reads)], opt, 100)
	}
}
