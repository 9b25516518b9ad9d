package genasm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// ErrQueryTooLong is the sentinel wrapped by every over-length query
// rejection (the WithMaxQueryLen admission guardrail and any backend
// Capabilities.MaxQueryLen limit). Callers match it with errors.Is to
// distinguish an admission failure from an alignment failure — the HTTP
// layer maps it to a 4xx instead of a generic 500.
var ErrQueryTooLong = errors.New("genasm: query too long")

// Capabilities describes a Backend's execution envelope. Admission
// control and batch schedulers size themselves from it instead of
// special-casing backend kinds.
type Capabilities struct {
	// MaxQueryLen is the longest query the backend can align (0 = no
	// structural limit). The Engine enforces the tighter of this and the
	// WithMaxQueryLen guardrail, wrapping rejections in ErrQueryTooLong.
	MaxQueryLen int `json:"max_query_len"`
	// PreferredBatch is the batch size the backend is most efficient at
	// (0 = no preference): the CPU backend amortizes its aligner pool
	// across a few pairs per worker, the GPU backend wants one full wave
	// of resident blocks. The serving scheduler uses it as its default
	// flush threshold.
	PreferredBatch int `json:"preferred_batch"`
	// Parallelism is how many alignments the backend executes
	// concurrently (CPU worker count, GPU resident blocks).
	Parallelism int `json:"parallelism"`
}

// BackendStats is a backend's cumulative operational snapshot, generic
// across kinds.
type BackendStats struct {
	// Name is the backend's registered name (e.g. "cpu", "gpu").
	Name string `json:"name"`
	// Batches counts AlignBatch executions; Pairs counts every pair
	// aligned, including single-pair fast-path calls that bypass batch
	// assembly (so Pairs/Batches stays a batching-efficiency signal,
	// Pairs alone the work done).
	Batches uint64 `json:"batches"`
	Pairs   uint64 `json:"pairs"`
	// GPU holds the most recent simulated device launch when the backend
	// is device-backed, nil otherwise.
	GPU *GPUStats `json:"gpu,omitempty"`
}

// GPUStats reports one simulated device launch (one AlignBatch call, or
// one read's candidate batch under MapAlign). Every figure is per-launch,
// not cumulative across the engine's lifetime.
type GPUStats struct {
	// Device names the simulated device model (e.g. "NVIDIA RTX A6000").
	Device string `json:"device"`
	// Seconds is the modelled wall-clock time of the launch: MakespanCycles
	// divided by the device clock.
	Seconds float64 `json:"seconds"`
	// MakespanCycles is the modelled cycle count of the launch's critical
	// path (block schedule plus L2/DRAM bandwidth floors).
	MakespanCycles uint64 `json:"makespan_cycles"`
	// BlocksPerSM is the occupancy the launch ran at.
	BlocksPerSM int `json:"blocks_per_sm"`
	// SharedBlocks / SpilledBlocks count pairs (one pair = one thread
	// block) whose DP working set did / did not fit the block's
	// shared-memory allocation; spilled blocks pay the L2/DRAM path.
	SharedBlocks  int `json:"shared_blocks"`
	SpilledBlocks int `json:"spilled_blocks"`
	// PairsPerSecond is this launch's modelled throughput: the batch's
	// pair count divided by Seconds. It is zero for an empty launch.
	PairsPerSecond float64 `json:"pairs_per_second"`
}

// Backend executes alignment batches for an Engine. Implementations must
// be safe for concurrent use and must produce bit-identical Results for
// the same Config (the paper's CPU/GPU equivalence claim, extended to
// every registered backend).
type Backend interface {
	AlignBatch(ctx context.Context, pairs []Pair) ([]Result, error)
	Capabilities() Capabilities
	Stats() BackendStats
}

// Factory builds a Backend instance for an Engine, database/sql-driver
// style. cfg is default-filled and threads is the engine's worker count
// (always >= 1); factories must validate eagerly so a constructed
// Backend never fails on configuration grounds afterwards.
type Factory func(cfg Config, threads int) (Backend, error)

var (
	backendsMu sync.RWMutex
	backends   = make(map[string]Factory)
)

// Register makes a backend factory available to NewEngine under name
// (resolved by WithBackendName and every cmd's -backend flag). It is
// typically called from an init function. Register panics on an empty or
// duplicate name or a nil factory — programmer errors, as in
// database/sql.Register.
func Register(name string, factory Factory) {
	backendsMu.Lock()
	defer backendsMu.Unlock()
	if name == "" {
		panic("genasm: Register backend with empty name")
	}
	if factory == nil {
		panic(fmt.Sprintf("genasm: Register backend %q with nil factory", name))
	}
	if _, dup := backends[name]; dup {
		panic(fmt.Sprintf("genasm: Register called twice for backend %q", name))
	}
	backends[name] = factory
}

// Backends returns the sorted names of all registered backends. CLI
// flags and the server's /backends endpoint list it so valid names are
// discoverable instead of hardcoded.
func Backends() []string {
	backendsMu.RLock()
	defer backendsMu.RUnlock()
	names := make([]string, 0, len(backends))
	for name := range backends {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BackendUsage builds a -backend flag help string from the registry, so
// every binary's usage output lists the currently valid names without
// hardcoding them.
func BackendUsage() string {
	return "execution backend: " + strings.Join(Backends(), " | ")
}

// openBackend resolves name through the registry and constructs the
// backend. Unknown names list every registered name, so a typo in a
// -backend flag or WithBackendName call is self-diagnosing.
func openBackend(name string, cfg Config, threads int) (Backend, error) {
	backendsMu.RLock()
	factory, ok := backends[name]
	backendsMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("genasm: unknown backend %q (registered: %s)",
			name, strings.Join(Backends(), ", "))
	}
	return factory(cfg, threads)
}

func init() {
	Register("cpu", func(cfg Config, threads int) (Backend, error) {
		return newCPUBackend(cfg, threads)
	})
	Register("gpu", func(cfg Config, _ int) (Backend, error) {
		return newGPUBackend(cfg)
	})
}
