// Whole-program determinism proofs layered on top of the per-file rules in
// lint.go. Three passes (see DESIGN.md "Static analysis & layering"):
//
//	transitive-purity    no function reachable from the engine touches the
//	                     wall clock, the global rand stream, os/net/syscall,
//	                     or spawns goroutines — with witness call chains
//	import-layering      the package DAG follows a declarative layer spec
//	checkpoint-complete  every checkpoint state field is set by its encoder
//	                     and read by its decoder
//
// Vet findings carry no //coda:ordered-ok escape hatch: they are proofs
// about the whole program, and the fixes are structural (move code across
// the layer boundary, serialize the field) rather than reviewable one-line
// exceptions. Config-level allowlists (PurityAllow, PurityExempt, the layer
// spec itself) are the only knobs, and they live in reviewed code.

package lint

// VetConfig scopes the whole-program passes.
type VetConfig struct {
	// PurityRoots are the engine packages: every function declared in them,
	// and everything transitively reachable, must be pure.
	PurityRoots []string
	// PurityExempt packages are outside the proof: they may be impure and
	// are excluded from the call graph entirely. The layer spec must
	// independently guarantee the engine cannot import them.
	PurityExempt []string
	// ImpurePkgs are import path prefixes whose functions and variables are
	// impurity sinks (filesystem, network, process control).
	ImpurePkgs []string
	// PurityAllow lists exact qualified names ("os.IsNotExist") exempt from
	// ImpurePkgs classification.
	PurityAllow []string

	// Layers is the declarative import-layering spec.
	Layers []Layer

	// CheckpointScope are the packages holding CODACKPT serializers.
	CheckpointScope []string
	// EncodeNames / DecodeNames override the recognized serializer names;
	// nil means the defaults (CheckpointState/Checkpoint and
	// RestoreCheckpoint/RestoreCheckpointState/Resume).
	EncodeNames []string
	DecodeNames []string
}

// DefaultVetConfig is the CODA repository policy.
func DefaultVetConfig() VetConfig {
	return VetConfig{
		// The sealed engine: the sim event loop, every sched.Policy
		// implementation (sched's FIFO/DRF/Static and core's CODA
		// scheduler), the streaming trace source the event loop pulls
		// arrivals from, and the state machines they drive.
		PurityRoots: []string{
			"internal/sim", "internal/sched", "internal/core",
			"internal/cluster", "internal/membw", "internal/fair",
			"internal/perfmodel", "internal/chaos", "internal/trace",
		},
		// The runner (worker pool), the control plane (whose WAL fsyncs and
		// HTTP surface are host-facing by design) and the CLIs are the only
		// places allowed to touch the host; they are out of the proof, and
		// the layer spec below makes them unimportable from the engine.
		PurityExempt: []string{"internal/runner", "internal/ctl/", "cmd/"},
		ImpurePkgs:   []string{"os", "net", "syscall"},
		PurityAllow:  nil,

		Layers: DefaultLayers(),

		CheckpointScope: []string{
			"internal/sched", "internal/core", "internal/sim",
			"internal/cluster", "internal/fair", "internal/membw",
			"internal/ctl", "internal/trace",
		},
	}
}

// DefaultLayers is the repository's import-layering spec, low layers first.
// The two load-bearing prohibitions: no engine layer may reach "runner" (the
// sole goroutine-capable package) or "cmd", and only the persistence layers
// (atomicio, persist) and tooling may import os — the engine observes the
// host exclusively through values handed to it.
func DefaultLayers() []Layer {
	engineDeny := []string{"os", "net", "sync", "syscall"}
	return []Layer{
		{
			Name:     "base",
			Packages: []string{"internal/job", "internal/metrics"},
			DenyStd:  engineDeny,
		},
		{
			Name: "domain",
			Packages: []string{
				"internal/chaos", "internal/cluster", "internal/fair",
				"internal/membw", "internal/perfmodel",
			},
			Allow:   []string{"base"},
			DenyStd: engineDeny,
		},
		{
			// The one file-writing primitive (temp file + fsync + rename).
			Name:     "atomicio",
			Packages: []string{"internal/checkpoint/atomicio"},
			DenyStd:  []string{"net", "sync", "syscall"},
		},
		{
			// Persistence: the CODACKPT envelope and the history log (whose
			// RWMutex is the one vetted sync use outside the runner).
			Name:     "persist",
			Packages: []string{"internal/checkpoint", "internal/history"},
			Allow:    []string{"base", "atomicio"},
			DenyStd:  []string{"net", "syscall"},
		},
		{
			// The control-plane WAL: append-fsync framed records plus the
			// checkpoint store, both built on the atomicio primitive.
			Name:     "wal",
			Packages: []string{"internal/ctl/wal"},
			Allow:    []string{"atomicio"},
			DenyStd:  []string{"net", "sync", "syscall"},
		},
		{
			Name:     "sched",
			Packages: []string{"internal/sched", "internal/trace"},
			Allow:    []string{"base", "domain"},
			DenyStd:  engineDeny,
		},
		{
			Name:     "policy",
			Packages: []string{"internal/core"},
			Allow:    []string{"base", "domain", "persist", "sched"},
			DenyStd:  engineDeny,
		},
		{
			Name:     "engine",
			Packages: []string{"internal/sim"},
			Allow:    []string{"base", "domain", "sched"},
			DenyStd:  engineDeny,
		},
		{
			// The sole goroutine-capable package: overlaps independent runs.
			Name:     "runner",
			Packages: []string{"internal/runner"},
			Allow:    []string{"base", "domain", "sched", "policy", "engine"},
			DenyStd:  []string{"os", "net", "syscall"},
		},
		{
			// The control plane: the WAL-backed machine, the HTTP server in
			// front of it, and the client backoff helper. It may not reach
			// os/syscall directly — durability flows only through the wal
			// layer, so every write is a framed, fsync'd record. net stays
			// open for net/http; sync is vetted by GoroutineAllow.
			Name:     "serve",
			Packages: []string{"internal/ctl", "internal/ctl/retry"},
			Allow:    []string{"base", "domain", "persist", "sched", "engine", "wal"},
			DenyStd:  []string{"os", "syscall"},
		},
		{
			// The soak harness: recipes composing engine runs through the
			// runner, still host-free — the coda-soak CLI owns all I/O.
			Name:     "soak",
			Packages: []string{"internal/soak"},
			Allow:    []string{"base", "domain", "persist", "sched", "policy", "engine", "runner", "serve"},
			DenyStd:  engineDeny,
		},
		{
			Name:     "tooling",
			Packages: []string{"internal/lint"},
			DenyStd:  []string{"net", "sync", "syscall"},
		},
		{
			Name:     "apps",
			Packages: []string{"internal/experiments"},
			Allow:    []string{"base", "domain", "persist", "sched", "policy", "engine", "runner"},
			DenyStd:  engineDeny,
		},
		{
			Name:     "cmd",
			Packages: []string{"cmd/"},
			Allow: []string{
				"base", "domain", "atomicio", "persist", "sched", "policy",
				"engine", "runner", "wal", "serve", "soak", "tooling", "apps",
			},
		},
	}
}

// RunVet executes the three whole-program passes over the module and returns
// the findings sorted by position.
func RunVet(m *Module, cfg VetConfig) []Finding {
	var out []Finding
	keep := func(f Finding) { out = append(out, f) }
	checkPurity(m, cfg, keep)
	checkLayers(m, cfg, keep)
	checkCkptComplete(m, cfg, keep)
	SortFindings(out)
	return out
}
