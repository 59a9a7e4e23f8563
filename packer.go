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

type packerEntry struct {
	description string
	factory     PackerFactory
}

var packers = newRegistry[packerEntry]("packer")

// RegisterPacker adds a named placement engine, making it available to
// WithPacker and cmd/themis-sim's -packer flag. Registering a name twice is
// an error.
func RegisterPacker(name, description string, factory PackerFactory) error {
	return packers.register(name, packerEntry{description: description, factory: factory}, factory != nil)
}

// Packers lists the registered packer names, sorted.
func Packers() []string { return packers.names() }

// DescribePacker returns a registered packer's one-line description.
func DescribePacker(name string) (string, error) {
	entry, err := packers.lookup(name)
	return entry.description, err
}

// buildPacker constructs a registered packer for a concrete topology.
func buildPacker(name string, topo *Topology) (Packer, error) {
	entry, err := packers.lookup(name)
	if err != nil {
		return nil, err
	}
	return entry.factory(topo), nil
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
		if _, err := DescribePacker(name); err != nil {
			return err
		}
		s.packerName = name
		return nil
	}
}

func init() {
	if err := RegisterPacker(PackerPackToEmpty,
		"deterministic pack-to-empty: anchor to held GPUs, best-fit domain, spill by free capacity",
		func(topo *Topology) Packer { return pack.New(topology.Lift(topo)) },
	); err != nil {
		panic(err)
	}
}
