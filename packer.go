package themis

import (
	"themis/internal/pack"
	"themis/internal/topology"
)

// PackerPackToEmpty is the built-in deterministic pack-to-empty placement
// engine: it re-materialises every grant next to the app's held GPUs, then
// onto the best-fit fabric domain, spilling across domains by free capacity.
const PackerPackToEmpty = "pack-to-empty"

// PackerFactory builds a Packer for the topology a simulation runs on.
type PackerFactory func(topo *Topology) Packer

// packers holds the built-in engine and every registered one.
var packers = newRegistry("packer", map[string]PackerFactory{
	PackerPackToEmpty: func(topo *Topology) Packer { return pack.New(topology.Lift(topo)) },
})

// RegisterPacker adds a named placement engine, making it available to
// WithPacker and cmd/themis-sim's -packer flag. The description documents
// the engine at the call site; the registry keeps only the factory.
// Registering a name twice is an error.
func RegisterPacker(name, description string, factory PackerFactory) error {
	return packers.register(name, factory, factory != nil)
}

// Packers lists the registered packer names, sorted.
func Packers() []string { return packers.names() }

// buildPacker constructs a registered packer for a concrete topology.
func buildPacker(name string, topo *Topology) (Packer, error) {
	factory, err := packers.lookup(name)
	if err != nil {
		return nil, err
	}
	return factory(topo), nil
}

// WithPacker routes every grant the policy makes through a registered
// placement engine (see Packers): the policy still decides how many GPUs
// each app gets, the packer decides which GPUs. The paper's policies place
// greedily on their own; PackerPackToEmpty instead packs gangs machine- and
// domain-local, which shows up in Report.Fragmentation and the apps'
// placement scores.
func WithPacker(name string) Option {
	return func(s *settings) error {
		if name == "" {
			s.packerName = ""
			return nil
		}
		if _, err := packers.lookup(name); err != nil {
			return err
		}
		s.packerName = name
		return nil
	}
}
