package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"genasm/internal/genome"
	"genasm/internal/readsim"
)

// writeTestData materializes a genome and simulated reads as files.
func writeTestData(t *testing.T, dir string) (refPath, fqPath, faPath string, reads []readsim.Read) {
	t.Helper()
	cfg := genome.DefaultConfig(120_000)
	ref := genome.Generate(cfg)

	refPath = filepath.Join(dir, "ref.fa")
	rf, err := os.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := genome.WriteFASTA(rf, []genome.Record{ref}); err != nil {
		t.Fatal(err)
	}
	rf.Close()

	prof := readsim.PacBioCLR()
	prof.MeanLength, prof.LengthSD = 1500, 200
	reads, err = readsim.Simulate(ref.Seq, 8, prof, 5)
	if err != nil {
		t.Fatal(err)
	}
	fqPath = filepath.Join(dir, "reads.fastq")
	qf, err := os.Create(fqPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := readsim.WriteFASTQ(qf, reads); err != nil {
		t.Fatal(err)
	}
	qf.Close()

	faPath = filepath.Join(dir, "reads.fa")
	ff, err := os.Create(faPath)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]genome.Record, len(reads))
	for i, r := range reads {
		recs[i] = genome.Record{Name: r.Name, Seq: r.Seq}
	}
	if err := genome.WriteFASTA(ff, recs); err != nil {
		t.Fatal(err)
	}
	ff.Close()
	return refPath, fqPath, faPath, reads
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, reads := writeTestData(t, dir)

	var out bytes.Buffer
	if err := run(refPath, fqPath, "genasm", "cpu", false, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(reads) {
		t.Fatalf("%d output lines for %d reads", len(lines), len(reads))
	}
	mapped := 0
	for _, line := range lines {
		fields := strings.Split(line, "\t")
		if len(fields) == 4 && fields[3] == "unmapped" {
			continue
		}
		if len(fields) != 9 {
			t.Fatalf("malformed record %q", line)
		}
		dist, err := strconv.Atoi(fields[6])
		if err != nil || dist < 0 {
			t.Fatalf("bad distance in %q", line)
		}
		readLen, _ := strconv.Atoi(fields[1])
		if dist > readLen/3 {
			t.Fatalf("implausible distance %d for %d bp read", dist, readLen)
		}
		mapped++
	}
	if mapped < len(reads)-1 {
		t.Fatalf("only %d/%d reads mapped", mapped, len(reads))
	}
}

func TestRunFASTAReadsAndAllCandidates(t *testing.T) {
	dir := t.TempDir()
	refPath, _, faPath, reads := writeTestData(t, dir)
	var best, all bytes.Buffer
	if err := run(refPath, faPath, "edlib", "cpu", false, &best); err != nil {
		t.Fatal(err)
	}
	if err := run(refPath, faPath, "edlib", "cpu", true, &all); err != nil {
		t.Fatal(err)
	}
	nBest := strings.Count(best.String(), "\n")
	nAll := strings.Count(all.String(), "\n")
	if nAll < nBest || nBest < len(reads)-2 {
		t.Fatalf("best=%d all=%d reads=%d", nBest, nAll, len(reads))
	}
}

func TestRunRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir)
	var out bytes.Buffer
	if err := run(refPath, fqPath, "not-an-algo", "cpu", false, &out); err == nil {
		t.Fatal("accepted unknown algorithm")
	}
	if err := run(filepath.Join(dir, "missing.fa"), fqPath, "genasm", "cpu", false, &out); err == nil {
		t.Fatal("accepted missing reference")
	}
	empty := filepath.Join(dir, "empty.fa")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, fqPath, "genasm", "cpu", false, &out); err == nil {
		t.Fatal("accepted empty reference")
	}
}

func TestLoadReadsFormats(t *testing.T) {
	dir := t.TempDir()
	_, fqPath, faPath, reads := writeTestData(t, dir)
	fq, err := readsim.LoadReadsFile(fqPath)
	if err != nil {
		t.Fatal(err)
	}
	fa, err := readsim.LoadReadsFile(faPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(fq) != len(reads) || len(fa) != len(reads) {
		t.Fatalf("fq=%d fa=%d want %d", len(fq), len(fa), len(reads))
	}
	if !bytes.Equal(fq[0].Seq, fa[0].Seq) {
		t.Fatal("formats disagree")
	}
	if _, err := readsim.LoadReadsFile(filepath.Join(dir, "nope.fq")); err == nil {
		t.Fatal("accepted missing reads file")
	}
}

// TestRunBackendSelection: any registered backend name resolves through
// the engine registry and produces identical records; an unknown name
// fails with the valid names listed.
func TestRunBackendSelection(t *testing.T) {
	dir := t.TempDir()
	refPath, fqPath, _, _ := writeTestData(t, dir)
	var cpu, gpu bytes.Buffer
	if err := run(refPath, fqPath, "genasm", "cpu", false, &cpu); err != nil {
		t.Fatal(err)
	}
	if err := run(refPath, fqPath, "genasm", "gpu", false, &gpu); err != nil {
		t.Fatal(err)
	}
	if cpu.String() != gpu.String() {
		t.Fatal("backends emitted different records for the same input")
	}
	var out bytes.Buffer
	err := run(refPath, fqPath, "genasm", "tpu", false, &out)
	if err == nil {
		t.Fatal("accepted unknown backend")
	}
	for _, want := range []string{"tpu", "cpu", "gpu"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("backend error %q does not list %q", err, want)
		}
	}
}
