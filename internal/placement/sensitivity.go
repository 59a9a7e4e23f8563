// Package placement models how the relative placement of a job's GPUs
// affects its training throughput — the paper's placement sensitivity S.
//
// An allocation spanning wider network boundaries (machine → rack →
// cross-rack) synchronises gradients over slower links, so the speedup from
// G GPUs degrades from linear: time = serialTime / (G · S), with S ∈ (0, 1]
// depending on the allocation's locality and on the model being trained
// (§5.2 step 3). The package also provides the greedy placement-sensitive
// GPU picker used for job-level assignment and leftover allocation.
package placement

import "themis/internal/cluster"

// Profile captures the placement sensitivity of one model family: the
// slowdown factor observed at each locality level, and the single-GPU
// training throughput used for the Figure 2 reproduction.
type Profile struct {
	// Name of the model family, e.g. "VGG16".
	Name string
	// NetworkIntensive marks families with strict locality preferences
	// (large parameter sizes relative to computation, e.g. the VGG family).
	NetworkIntensive bool
	// ImagesPerSecPerGPU is the ideal single-GPU throughput, used to model
	// Figure 2's absolute throughputs.
	ImagesPerSecPerGPU float64
	// Slowdown maps a locality level to S ∈ (0, 1]. Missing levels fall back
	// to the cross-domain (LocalityNone) value, so legacy profiles written
	// before the fabric-domain level behave as if cross-rack and cross-domain
	// were one level — exactly the flat model they were calibrated against.
	Slowdown map[cluster.Locality]float64
}

// S returns the slowdown factor for an allocation with the given locality.
// It returns 1 for unknown localities only if no cross-domain value is set.
func (p Profile) S(l cluster.Locality) float64 {
	if v, ok := p.Slowdown[l]; ok {
		return v
	}
	if v, ok := p.Slowdown[cluster.LocalityNone]; ok {
		return v
	}
	return 1
}

// SOf returns the slowdown factor for alloc placed on topo.
func (p Profile) SOf(topo *cluster.Topology, alloc cluster.Alloc) float64 {
	if alloc.Total() <= 1 {
		return 1 // a single GPU never synchronises over the network
	}
	return p.S(cluster.LocalityOf(topo, alloc))
}

// Throughput returns the aggregate training throughput (images/sec) of a job
// from this family using alloc on topo: G · S · perGPU.
func (p Profile) Throughput(topo *cluster.Topology, alloc cluster.Alloc) float64 {
	g := float64(alloc.Total())
	return g * p.SOf(topo, alloc) * p.ImagesPerSecPerGPU
}

// The model-family catalog. Slowdowns are calibrated so that the Figure 2
// reproduction preserves the paper's shape: the VGG family (and AlexNet,
// whose parameter-to-compute ratio is large) loses roughly half its
// throughput when 4 GPUs span two servers, Inception-v3 loses a little, and
// ResNet50 is essentially placement-insensitive.
var (
	// VGG16 is the paper's canonical network-intensive model (Figure 2).
	VGG16 = Profile{
		Name: "VGG16", NetworkIntensive: true, ImagesPerSecPerGPU: 57,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 0.96,
			cluster.LocalityRack:    0.58,
			cluster.LocalityDomain:  0.42,
			cluster.LocalityNone:    0.34,
		},
	}
	// VGG19 is slightly heavier than VGG16 with the same sensitivity shape.
	VGG19 = Profile{
		Name: "VGG19", NetworkIntensive: true, ImagesPerSecPerGPU: 47,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 0.96,
			cluster.LocalityRack:    0.60,
			cluster.LocalityDomain:  0.44,
			cluster.LocalityNone:    0.36,
		},
	}
	// AlexNet has enormous fully-connected layers relative to its compute,
	// making it the most placement-sensitive family in Figure 2.
	AlexNet = Profile{
		Name: "AlexNet", NetworkIntensive: true, ImagesPerSecPerGPU: 112,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 0.93,
			cluster.LocalityRack:    0.48,
			cluster.LocalityDomain:  0.34,
			cluster.LocalityNone:    0.27,
		},
	}
	// InceptionV3 is mildly placement-sensitive.
	InceptionV3 = Profile{
		Name: "Inceptionv3", NetworkIntensive: false, ImagesPerSecPerGPU: 80,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 0.99,
			cluster.LocalityRack:    0.88,
			cluster.LocalityDomain:  0.78,
			cluster.LocalityNone:    0.70,
		},
	}
	// ResNet50 has no placement preference (Figure 2).
	ResNet50 = Profile{
		Name: "ResNet50", NetworkIntensive: false, ImagesPerSecPerGPU: 105,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 1.0,
			cluster.LocalityRack:    0.97,
			cluster.LocalityDomain:  0.94,
			cluster.LocalityNone:    0.90,
		},
	}
	// ResNet152 is a deeper, still compute-bound ResNet used to diversify
	// synthetic workloads.
	ResNet152 = Profile{
		Name: "ResNet152", NetworkIntensive: false, ImagesPerSecPerGPU: 42,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 1.0,
			cluster.LocalityRack:    0.95,
			cluster.LocalityDomain:  0.90,
			cluster.LocalityNone:    0.85,
		},
	}
	// GNMT models a recurrent machine-translation workload: moderately
	// network intensive.
	GNMT = Profile{
		Name: "GNMT", NetworkIntensive: true, ImagesPerSecPerGPU: 30,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 0.95,
			cluster.LocalityRack:    0.65,
			cluster.LocalityDomain:  0.50,
			cluster.LocalityNone:    0.40,
		},
	}
	// DeepSpeech models a speech-recognition workload.
	DeepSpeech = Profile{
		Name: "DeepSpeech", NetworkIntensive: false, ImagesPerSecPerGPU: 55,
		Slowdown: map[cluster.Locality]float64{
			cluster.LocalitySlot:    1.0,
			cluster.LocalityMachine: 0.99,
			cluster.LocalityRack:    0.85,
			cluster.LocalityDomain:  0.72,
			cluster.LocalityNone:    0.63,
		},
	}
)

// Catalog returns every built-in model family, ordered with the Figure 2
// models first.
func Catalog() []Profile {
	return []Profile{VGG16, VGG19, AlexNet, InceptionV3, ResNet50, ResNet152, GNMT, DeepSpeech}
}

// Figure2Models returns the five models plotted in the paper's Figure 2, in
// the figure's order.
func Figure2Models() []Profile {
	return []Profile{VGG16, VGG19, AlexNet, InceptionV3, ResNet50}
}

// ByName returns the catalog profile with the given name.
func ByName(name string) (Profile, bool) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// NetworkIntensiveProfiles returns the catalog families with strict locality
// preferences (used to build workload mixes).
func NetworkIntensiveProfiles() []Profile {
	var out []Profile
	for _, p := range Catalog() {
		if p.NetworkIntensive {
			out = append(out, p)
		}
	}
	return out
}

// ComputeIntensiveProfiles returns the catalog families without strict
// locality preferences.
func ComputeIntensiveProfiles() []Profile {
	var out []Profile
	for _, p := range Catalog() {
		if !p.NetworkIntensive {
			out = append(out, p)
		}
	}
	return out
}

// GenericComputeIntensive is a synthetic compute-intensive profile: trace apps
// whose model the catalog does not know run with it.
var GenericComputeIntensive = Profile{
	Name: "generic-compute", NetworkIntensive: false, ImagesPerSecPerGPU: 90,
	Slowdown: map[cluster.Locality]float64{
		cluster.LocalitySlot:    1.0,
		cluster.LocalityMachine: 1.0,
		cluster.LocalityRack:    0.96,
		cluster.LocalityDomain:  0.92,
		cluster.LocalityNone:    0.88,
	},
}
