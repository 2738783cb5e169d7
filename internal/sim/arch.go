package sim

import (
	"fmt"
	"strings"

	"dkip/internal/core"
	"dkip/internal/engine"
	"dkip/internal/inorder"
	"dkip/internal/mem"
	"dkip/internal/ooo"
	"dkip/internal/sample"
)

// Machine is what an architecture's configuration type gives this layer.
// ooo.Config, core.Config and inorder.Config implement it, each with a
// WithDefaults method returning its own type (machineConfig). Validate,
// InFlight and Params read the configuration as given; the registry calls
// them on its WithDefaults form.
type Machine interface {
	// Validate reports configuration errors.
	Validate() error
	// InFlight estimates the machine's in-flight instruction capacity, the
	// window sampling-plan completion scales with.
	InFlight() uint64
	// Params is the one source of the machine's display name, memory
	// configuration and predictor constructor.
	Params() engine.Params
	// NewEngine constructs the machine: cold caches, untrained predictor.
	NewEngine() sample.Engine
}

// machineConfig is a Machine that can apply its own defaults, returning its
// own concrete type C.
type machineConfig[C any] interface {
	Machine
	WithDefaults() C
}

// archDesc is one registered simulation engine: everything the orchestration
// layer needs to normalize, hash, validate, and construct a RunSpec's
// machine, with no per-arch switch statements anywhere else. Registering a
// fourth architecture means adding a config field to RunSpec and one entry
// here.
type archDesc struct {
	arch Arch
	name string
	// ckptFamily prefixes architectural-checkpoint content keys. Families
	// whose checkpoints have identical structure share a value: the D-KIP
	// ("core") carries a confidence-estimator section the others lack,
	// while the out-of-order and in-order cores both snapshot only caches
	// and predictor and therefore share "ooo" (the memory and predictor
	// configuration are hashed separately, so sharing the family never
	// conflates different state).
	ckptFamily string
	// config reads the spec's configuration field for this architecture,
	// first replacing it with its WithDefaults form when normalize is set,
	// and returns a pointer to the field's memory configuration.
	config func(s *RunSpec, normalize bool) (Machine, *mem.Config)
}

// field builds an archDesc.config accessor from one RunSpec field.
func field[C machineConfig[C]](f func(s *RunSpec) (*C, *mem.Config)) func(*RunSpec, bool) (Machine, *mem.Config) {
	return func(s *RunSpec, normalize bool) (Machine, *mem.Config) {
		c, m := f(s)
		if normalize {
			*c = (*c).WithDefaults()
		}
		return *c, m
	}
}

// archDescs lists the registered engines in Arch order.
var archDescs = []*archDesc{
	{arch: ArchOOO, name: "ooo", ckptFamily: "ooo",
		config: field(func(s *RunSpec) (*ooo.Config, *mem.Config) { return &s.OOO, &s.OOO.Mem })},
	{arch: ArchDKIP, name: "dkip", ckptFamily: "core",
		config: field(func(s *RunSpec) (*core.Config, *mem.Config) { return &s.DKIP, &s.DKIP.Mem })},
	// The in-order core snapshots caches and predictor only, the same
	// structure as ooo.
	{arch: ArchInorder, name: "inorder", ckptFamily: "ooo",
		config: field(func(s *RunSpec) (*inorder.Config, *mem.Config) { return &s.Inorder, &s.Inorder.Mem })},
}

var (
	archByID   = map[Arch]*archDesc{}
	archByName = map[string]*archDesc{}
)

func init() {
	for _, d := range archDescs {
		archByID[d.arch] = d
		archByName[d.name] = d
	}
}

// desc resolves an Arch to its registered engine. Validate rejects specs
// with an unregistered Arch; for such a spec desc falls back to the
// out-of-order engine so Label and ConfigName can still render it in the
// error path instead of crashing.
func desc(a Arch) *archDesc {
	if d, ok := archByID[a]; ok {
		return d
	}
	return archDescs[0]
}

// ArchNames lists the registered engine names in Arch order.
func ArchNames() []string {
	names := make([]string, len(archDescs))
	for i, d := range archDescs {
		names[i] = d.name
	}
	return names
}

// Archs lists the registered engines in Arch order.
func Archs() []Arch {
	archs := make([]Arch, len(archDescs))
	for i, d := range archDescs {
		archs[i] = d.arch
	}
	return archs
}

// ParseArch resolves an engine name as printed by Arch.String — a
// registered name, or the "arch(N)" fallback rendering, which round-trips
// to Arch(N). Unknown names error with the registered list.
func ParseArch(name string) (Arch, error) {
	if d, ok := archByName[name]; ok {
		return d.arch, nil
	}
	var n uint8
	if _, err := fmt.Sscanf(name, "arch(%d)", &n); err == nil && fmt.Sprintf("arch(%d)", n) == name {
		return Arch(n), nil
	}
	return 0, fmt.Errorf("sim: unknown arch %q (registered engines: %s)", name, strings.Join(ArchNames(), ", "))
}
