package genasm_test

import (
	"context"
	"fmt"
	"log"

	"genasm"
)

// ExampleNewEngine builds the default engine (improved GenASM, CPU
// backend) and aligns one query against one candidate region.
func ExampleNewEngine() {
	eng, err := genasm.NewEngine(
		genasm.WithAlgorithm(genasm.GenASM),
		genasm.WithBackendName("cpu"), // or "gpu" — see Backends()
	)
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Align(context.Background(),
		[]byte("GATTACAGATTACA"),
		[]byte("GATTACACATTACA"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Distance, res.Cigar)
	// Output: 1 7=1X6=
}

// ExampleEngine_AlignBatch aligns a batch of pairs; results are
// index-aligned with the input and the whole call is context-aware.
func ExampleEngine_AlignBatch() {
	eng, err := genasm.NewEngine()
	if err != nil {
		log.Fatal(err)
	}
	pairs := []genasm.Pair{
		{Query: []byte("ACGTACGTAC"), Ref: []byte("ACGTACGTAC")},
		{Query: []byte("ACGTACGTAC"), Ref: []byte("ACGTTACGTAC")},
	}
	results, err := eng.AlignBatch(context.Background(), pairs)
	if err != nil {
		log.Fatal(err)
	}
	for i, r := range results {
		fmt.Printf("pair %d: distance %d\n", i, r.Distance)
	}
	// Output:
	// pair 0: distance 0
	// pair 1: distance 1
}

// ExampleWithBackendName selects the simulated-GPU backend through the
// driver-style registry; results are bit-identical to the CPU backend's.
func ExampleWithBackendName() {
	eng, err := genasm.NewEngine(genasm.WithBackendName("gpu"))
	if err != nil {
		log.Fatal(err)
	}
	res, err := eng.Align(context.Background(),
		[]byte("GATTACAGATTACA"),
		[]byte("GATTACACATTACA"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(eng.BackendName(), res.Distance, res.Cigar)
	// Output: gpu 1 7=1X6=
}

// ExampleEngine_MapAlign runs the full read-mapping pipeline: candidate
// location on a minimizer/chaining Mapper, then alignment of the best
// candidate, streamed in input order.
func ExampleEngine_MapAlign() {
	ref := genasm.GenerateGenome(30_000, 1)
	mapper, err := genasm.NewMapper(ref)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := genasm.NewEngine(genasm.WithMapper(mapper))
	if err != nil {
		log.Fatal(err)
	}
	reads := []genasm.Read{{Name: "r1", Seq: ref[12_000:12_400]}}
	out, err := eng.MapAlign(context.Background(), genasm.StreamReads(reads))
	if err != nil {
		log.Fatal(err)
	}
	for m := range out {
		if m.Err != nil || m.Unmapped {
			log.Fatal("read did not map")
		}
		fmt.Println(m.Read.Name, "distance", m.Result.Distance, "rev-comp", m.Candidate.RevComp)
	}
	// Output: r1 distance 0 rev-comp false
}
