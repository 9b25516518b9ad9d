package core

import (
	"math/rand"
	"testing"

	"genasm/internal/dna"
	"genasm/internal/stats"
	"genasm/internal/swg"
)

func randCodes(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(4))
	}
	return s
}

// mutateCodes applies ~rate errors per base (1/3 sub, 1/3 del, 1/3 ins).
func mutateCodes(rng *rand.Rand, s []byte, rate float64) []byte {
	out := make([]byte, 0, len(s)+8)
	for _, b := range s {
		r := rng.Float64()
		switch {
		case r < rate/3:
			out = append(out, byte(rng.Intn(4)))
		case r < 2*rate/3:
		case r < rate:
			out = append(out, b, byte(rng.Intn(4)))
		default:
			out = append(out, b)
		}
	}
	return out
}

func mustAligner(t *testing.T, cfg Config) *Aligner {
	t.Helper()
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func decode(codes []byte) []byte { return dna.DecodeSeq(codes) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{W: 0, O: 0, InitialK: 1},
		{W: 64, O: 64, InitialK: 1},
		{W: 64, O: -1, InitialK: 1},
		{W: 64, O: 24, InitialK: 0},
		{W: 64, O: 24, InitialK: 65},
		{W: 64, O: 24, InitialK: 12, DisableSENE: true}, // DENT without SENE
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d unexpectedly valid: %+v", i, cfg)
		}
	}
}

func TestWindowExactSingleWord(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := mustAligner(t, DefaultConfig())
	for iter := 0; iter < 400; iter++ {
		m := 1 + rng.Intn(64)
		n := rng.Intn(81)
		p := randCodes(rng, m)
		var tx []byte
		if iter%2 == 0 {
			tx = randCodes(rng, n)
		} else {
			tx = mutateCodes(rng, p, 0.2)
			if len(tx) > 80 {
				tx = tx[:80]
			}
		}
		wr, err := a.AlignWindow(p, tx)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		wantD, _, _ := swg.PrefixAlign(decode(p), decode(tx))
		if wr.Distance != wantD {
			t.Fatalf("iter %d (m=%d n=%d): distance %d want %d", iter, m, len(tx), wr.Distance, wantD)
		}
		if err := wr.Cigar.Check(decode(p), decode(tx[:wr.TextUsed])); err != nil {
			t.Fatalf("iter %d: cigar: %v", iter, err)
		}
		if wr.Cigar.EditCost() != wr.Distance {
			t.Fatalf("iter %d: cost %d != distance %d", iter, wr.Cigar.EditCost(), wr.Distance)
		}
		if wr.Cigar.RefLen() != wr.TextUsed {
			t.Fatalf("iter %d: reflen %d != used %d", iter, wr.Cigar.RefLen(), wr.TextUsed)
		}
	}
}

func TestWindowEmptyPattern(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	wr, err := a.AlignWindow(nil, randCodes(rand.New(rand.NewSource(2)), 10))
	if err != nil || wr.Distance != 0 || len(wr.Cigar) != 0 || wr.TextUsed != 0 {
		t.Fatalf("empty pattern: %+v err=%v", wr, err)
	}
}

func TestWindowEmptyText(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	p := randCodes(rand.New(rand.NewSource(3)), 20)
	wr, err := a.AlignWindow(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wr.Distance != 20 || wr.TextUsed != 0 {
		t.Fatalf("empty text: %+v", wr)
	}
	if wr.Cigar.String() != "20I" {
		t.Fatalf("cigar %s", wr.Cigar)
	}
}

func TestWindowRetryDoubling(t *testing.T) {
	// Pattern totally dissimilar from text forces the error budget past
	// InitialK; doubling must still find the exact distance.
	rng := rand.New(rand.NewSource(4))
	cfg := DefaultConfig()
	cfg.InitialK = 1
	a := mustAligner(t, cfg)
	for iter := 0; iter < 60; iter++ {
		p := randCodes(rng, 1+rng.Intn(64))
		tx := randCodes(rng, rng.Intn(70))
		wr, err := a.AlignWindow(p, tx)
		if err != nil {
			t.Fatal(err)
		}
		wantD, _, _ := swg.PrefixAlign(decode(p), decode(tx))
		if wr.Distance != wantD {
			t.Fatalf("iter %d: distance %d want %d", iter, wr.Distance, wantD)
		}
	}
}

// ablations enumerates every valid improvement combination.
func ablations(base Config) []Config {
	var out []Config
	for _, et := range []bool{false, true} {
		for _, mode := range []struct{ sene, dent bool }{
			{false, false}, {true, false}, {true, true},
		} {
			c := base
			c.DisableET = et
			c.DisableSENE = !mode.sene
			c.DisableDENT = !mode.dent
			out = append(out, c)
		}
	}
	return out
}

func TestAblationsProduceIdenticalOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := DefaultConfig()
	cfgs := ablations(base)
	aligners := make([]*Aligner, len(cfgs))
	for i, c := range cfgs {
		aligners[i] = mustAligner(t, c)
	}
	for iter := 0; iter < 150; iter++ {
		m := 1 + rng.Intn(64)
		p := randCodes(rng, m)
		tx := mutateCodes(rng, p, 0.25)
		if len(tx) > 80 {
			tx = tx[:80]
		}
		ref, err := aligners[0].AlignWindow(p, tx)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(aligners); i++ {
			got, err := aligners[i].AlignWindow(p, tx)
			if err != nil {
				t.Fatalf("cfg %+v: %v", cfgs[i], err)
			}
			if got.Distance != ref.Distance || got.TextUsed != ref.TextUsed ||
				got.Cigar.String() != ref.Cigar.String() {
				t.Fatalf("iter %d: cfg %+v diverges: %d/%d %q/%q",
					iter, cfgs[i], got.Distance, ref.Distance, got.Cigar, ref.Cigar)
			}
		}
	}
}

func TestMultiwordWindowExact(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := Config{W: 128, O: 32, InitialK: 16}
	a := mustAligner(t, cfg)
	for iter := 0; iter < 60; iter++ {
		m := 65 + rng.Intn(100)
		p := randCodes(rng, m)
		tx := mutateCodes(rng, p, 0.15)
		wr, err := a.AlignWindow(p, tx)
		if err != nil {
			t.Fatal(err)
		}
		wantD, _, _ := swg.PrefixAlign(decode(p), decode(tx))
		if wr.Distance != wantD {
			t.Fatalf("iter %d (m=%d): distance %d want %d", iter, m, wr.Distance, wantD)
		}
		if err := wr.Cigar.Check(decode(p), decode(tx[:wr.TextUsed])); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

func TestMultiwordAblations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	base := Config{W: 100, O: 30, InitialK: 10}
	cfgs := ablations(base)
	for iter := 0; iter < 40; iter++ {
		p := randCodes(rng, 65+rng.Intn(60))
		tx := mutateCodes(rng, p, 0.2)
		var refD int
		var refCg string
		for i, c := range cfgs {
			a := mustAligner(t, c)
			got, err := a.AlignWindow(p, tx)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				refD, refCg = got.Distance, got.Cigar.String()
				continue
			}
			if got.Distance != refD || got.Cigar.String() != refCg {
				t.Fatalf("iter %d cfg %+v diverges", iter, c)
			}
		}
	}
}

// TestAblationMatrixAcrossGeometries runs every valid SENE/DENT/ET combo
// over window geometries that exercise both kernels and every storage
// layout: the single-word boundary (W=64), the first multi-word width
// (W=65), packed one-word and two-word bands (W=200 at k=12 and k=40),
// a band that exactly fills the single word (k=30), and a budget past
// the single-word band limit (k=31, banding auto-off). Every mode pair
// must agree on distance, consumed text and the byte-identical CIGAR,
// and the reference output must match the quadratic gold standard.
func TestAblationMatrixAcrossGeometries(t *testing.T) {
	geoms := []struct {
		name    string
		w, o, k int
	}{
		{"w64-boundary", 64, 24, 12},
		{"w64-band-full-word", 64, 24, 30},  // bandB = 63 <= 64: banded
		{"w64-band-over-limit", 64, 24, 31}, // bandB = 65 > 64: banding off
		{"w65-first-multiword", 65, 24, 12},
		{"w200-packed-one-word", 200, 50, 12}, // band fits 1 of 4 words
		{"w200-two-band-words", 200, 50, 40},  // band needs 2 of 4 words
	}
	for _, g := range geoms {
		t.Run(g.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + g.w + g.k)))
			cfgs := ablations(Config{W: g.w, O: g.o, InitialK: g.k})
			aligners := make([]*Aligner, len(cfgs))
			for i, c := range cfgs {
				aligners[i] = mustAligner(t, c)
			}
			for iter := 0; iter < 30; iter++ {
				m := 1 + rng.Intn(g.w)
				if iter%3 == 0 {
					m = g.w // always include the full-width case
				}
				p := randCodes(rng, m)
				tx := mutateCodes(rng, p, 0.2)
				if len(tx) > g.w+g.w/4 {
					tx = tx[:g.w+g.w/4]
				}
				ref, err := aligners[0].AlignWindow(p, tx)
				if err != nil {
					t.Fatal(err)
				}
				if wantD, _, _ := swg.PrefixAlign(decode(p), decode(tx)); ref.Distance != wantD {
					t.Fatalf("iter %d: distance %d, gold standard %d", iter, ref.Distance, wantD)
				}
				if ref.Cigar.EditCost() != ref.Distance {
					t.Fatalf("iter %d: cigar cost %d != distance %d", iter, ref.Cigar.EditCost(), ref.Distance)
				}
				if err := ref.Cigar.Check(decode(p), decode(tx[:ref.TextUsed])); err != nil {
					t.Fatalf("iter %d: invalid cigar: %v", iter, err)
				}
				for i := 1; i < len(aligners); i++ {
					got, err := aligners[i].AlignWindow(p, tx)
					if err != nil {
						t.Fatalf("cfg %+v: %v", cfgs[i], err)
					}
					if got.Distance != ref.Distance || got.TextUsed != ref.TextUsed ||
						got.Cigar.String() != ref.Cigar.String() {
						t.Fatalf("iter %d: cfg %+v diverges from %+v: %d/%d %q/%q",
							iter, cfgs[i], cfgs[0], got.Distance, ref.Distance, got.Cigar, ref.Cigar)
					}
				}
			}
		})
	}
}

func TestPipelinePerfectRead(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := mustAligner(t, DefaultConfig())
	ref := randCodes(rng, 2000)
	read := ref[100:1100]
	res, err := a.AlignEncoded(read, ref[100:])
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 {
		t.Fatalf("distance %d want 0", res.Distance)
	}
	if res.RefConsumed != len(read) {
		t.Fatalf("consumed %d want %d", res.RefConsumed, len(read))
	}
	if err := res.Cigar.Check(decode(read), decode(ref[100:100+res.RefConsumed])); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineNoisyReadsValidAndNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := mustAligner(t, DefaultConfig())
	for iter := 0; iter < 20; iter++ {
		refLen := 800 + rng.Intn(400)
		origin := randCodes(rng, refLen)
		read := mutateCodes(rng, origin, 0.10)
		// Candidate region: origin plus slack, as minimap would give.
		region := append(append([]byte{}, origin...), randCodes(rng, 100)...)
		res, err := a.AlignEncoded(read, region)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Cigar.Check(decode(read), decode(region[:res.RefConsumed])); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if res.Cigar.EditCost() != res.Distance {
			t.Fatalf("iter %d: cost mismatch", iter)
		}
		opt, _, _ := swg.PrefixAlign(decode(read), decode(region))
		if res.Distance < opt {
			t.Fatalf("iter %d: windowed distance %d below optimum %d", iter, res.Distance, opt)
		}
		// The windowing heuristic should stay close to optimal at 10%
		// error with the paper's W/O.
		if res.Distance > opt+opt/4+8 {
			t.Fatalf("iter %d: windowed distance %d far above optimum %d", iter, res.Distance, opt)
		}
	}
}

func TestPipelineWindowGeometryErrors(t *testing.T) {
	if _, err := AlignWindowed(nil, nil, nil, 0, 0, nil); err == nil {
		t.Error("accepted W=0")
	}
	if _, err := AlignWindowed(nil, nil, nil, 10, 10, nil); err == nil {
		t.Error("accepted O=W")
	}
}

func TestCountersImprovedVsUnimproved(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randCodes(rng, 64)
	tx := mutateCodes(rng, p, 0.1)
	if len(tx) > 70 {
		tx = tx[:70]
	}

	run := func(cfg Config) *stats.Counters {
		a := mustAligner(t, cfg)
		var c stats.Counters
		a.SetCounters(&c)
		if _, err := a.AlignWindow(p, tx); err != nil {
			t.Fatal(err)
		}
		return &c
	}

	improved := run(DefaultConfig())
	unimp := run(Config{W: 64, O: 24, InitialK: 12,
		DisableSENE: true, DisableDENT: true, DisableET: true})

	if improved.PeakFootprintBits >= unimp.PeakFootprintBits {
		t.Fatalf("improved footprint %d !< unimproved %d",
			improved.PeakFootprintBits, unimp.PeakFootprintBits)
	}
	if improved.Accesses() >= unimp.Accesses() {
		t.Fatalf("improved accesses %d !< unimproved %d",
			improved.Accesses(), unimp.Accesses())
	}
	if improved.RowsSkipped == 0 {
		t.Fatal("ET skipped no rows on a low-error window")
	}
	if unimp.RowsSkipped != 0 {
		t.Fatal("unimproved config skipped rows")
	}
}

func TestExtract64(t *testing.T) {
	// Construct a multi-word state with known active (0) bits and check
	// band slicing against a bit-by-bit model, across word boundaries and
	// past both ends of the pattern.
	m := 150
	set := map[int]bool{0: true, 5: true, 63: true, 64: true, 100: true, 127: true, 128: true, 149: true}
	words := make([]uint64, (m+63)/64)
	for j := 0; j < m; j++ {
		if !set[j] {
			words[j/64] |= 1 << uint(j%64)
		}
	}
	for _, lo := range []int{-200, -70, -10, -1, 0, 3, 30, 60, 63, 64, 65, 100, 126, 127, 128, 148, 149, 150, 200} {
		w := extract64(words, lo, m)
		for b := 0; b < 64; b++ {
			j := lo + b
			want := uint64(1)
			if j >= 0 && j < m && set[j] {
				want = 0
			}
			if got := w >> uint(b) & 1; got != want {
				t.Fatalf("lo=%d bit %d (j=%d): got %d want %d", lo, b, j, got, want)
			}
		}
	}
}

func TestAlignRawBytes(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	res, err := a.Align([]byte("ACGTACGTACGT"), []byte("ACGTACGTACGTTTT"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 0 || res.RefConsumed != 12 {
		t.Fatalf("%+v", res)
	}
}

func TestAlignHandlesNBases(t *testing.T) {
	a := mustAligner(t, DefaultConfig())
	// N never matches, even against N, so each N costs one edit.
	res, err := a.Align([]byte("ACGNNACGT"), []byte("ACGNNACGT"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Distance != 2 {
		t.Fatalf("distance %d want 2", res.Distance)
	}
}

// TestResumedRetryCounters pins the budget-doubling retry on windows whose
// distance exceeds the budget several times over. Each retry continues at
// row k_old+1, so with ET on the window computes exactly rows 0..d* once,
// and stores each once. Every attempt still counts as a window whose
// footprint charges all the rows its table holds, retained ones included,
// at that attempt's band width, which keeps the footprint what a restarting
// kernel reports. The CIGAR must equal a single attempt's at the final
// budget, which computes every row from scratch.
func TestResumedRetryCounters(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    int
		cfg  Config
	}{
		// Single-word, DENT banded: bands 11, 19, 35 bits at k = 4, 8, 16.
		{"dc64", 24, Config{W: 64, O: 24, InitialK: 4}},
		// Multi-word with unpacked entry rows (DENT off): every attempt
		// charges m bits per entry.
		{"multiword-unpacked", 100, Config{W: 128, O: 24, InitialK: 4, DisableDENT: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			p, tx := randCodes(rng, tc.m), randCodes(rng, tc.m+6) // unrelated text
			a := mustAligner(t, tc.cfg)
			var c stats.Counters
			a.SetCounters(&c)
			wr, err := a.AlignWindow(p, tx)
			if err != nil {
				t.Fatal(err)
			}
			dStar, n := wr.Distance, len(tx)
			entryBits := func(k int) uint64 {
				switch {
				case tc.cfg.DisableDENT:
					return uint64(tc.m)
				case 2*k+3 <= 64:
					return uint64(2*k + 3)
				}
				return 64
			}
			var attempts, wantFootprint uint64
			k := tc.cfg.InitialK
			for ; k < dStar; k = min(2*k, tc.m) {
				attempts++
				wantFootprint += uint64(k+1) * uint64(n) * entryBits(k)
			}
			if attempts < 2 {
				t.Fatalf("fixture d*=%d forces %d doublings from k=%d, want >= 2", dStar, attempts, tc.cfg.InitialK)
			}
			wantFootprint += uint64(dStar+1) * uint64(n) * entryBits(k)

			if c.RowsComputed != uint64(dStar+1) {
				t.Errorf("RowsComputed %d, want d*+1 = %d", c.RowsComputed, dStar+1)
			}
			if c.RowsSkipped != uint64(k-dStar) {
				t.Errorf("RowsSkipped %d, want k-d* = %d", c.RowsSkipped, k-dStar)
			}
			if c.Windows != attempts+1 {
				t.Errorf("Windows %d, want one per attempt = %d", c.Windows, attempts+1)
			}
			if c.TotalFootprintBits != wantFootprint {
				t.Errorf("TotalFootprintBits %d, want %d", c.TotalFootprintBits, wantFootprint)
			}

			once := tc.cfg
			once.InitialK = k
			want, err := mustAligner(t, once).AlignWindow(p, tx)
			if err != nil {
				t.Fatal(err)
			}
			if wr.Distance != want.Distance || wr.TextUsed != want.TextUsed || wr.Cigar.String() != want.Cigar.String() {
				t.Errorf("resumed %d/%d %q, single attempt at k=%d %d/%d %q",
					wr.Distance, wr.TextUsed, wr.Cigar, k, want.Distance, want.TextUsed, want.Cigar)
			}
		})
	}
}

// TestResultsDoNotAliasScratch checks that the CIGAR a Result carries is
// its own: the read-level CIGAR is built in the aligner's scratch, and a
// later call must not rewrite an earlier Result.
func TestResultsDoNotAliasScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := mustAligner(t, DefaultConfig())
	origin := randCodes(rng, 700)
	read := mutateCodes(rng, origin, 0.1)
	first, err := a.AlignEncoded(read, origin)
	if err != nil {
		t.Fatal(err)
	}
	want := first.Cigar.String()
	if _, err := a.AlignEncoded(randCodes(rng, 700), randCodes(rng, 750)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AlignWindow(randCodes(rng, 64), randCodes(rng, 64)); err != nil {
		t.Fatal(err)
	}
	if got := first.Cigar.String(); got != want {
		t.Fatalf("first Result's CIGAR changed by later calls:\n got %s\nwant %s", got, want)
	}
}
