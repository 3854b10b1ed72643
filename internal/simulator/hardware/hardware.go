// Package hardware describes the simulated HPC systems Extra-Deep is
// evaluated on. The paper's measurements come from the DEEP (Extreme Scale
// Booster) and JURECA (DC module) clusters at Jülich Supercomputing Centre
// (Table 1); this package captures the performance-relevant parameters of
// those systems — per-GPU compute throughput and memory bandwidth, host
// interconnects, network latency/bandwidth, and node topology — so that the
// training simulator can produce kernel timings with realistic scaling
// behaviour.
package hardware

import (
	"errors"
	"fmt"
)

// GPU describes one accelerator.
type GPU struct {
	// Name is the marketing name, e.g. "V100".
	Name string
	// FP32TFLOPS is the peak single-precision throughput in TFLOP/s.
	FP32TFLOPS float64
	// TensorTFLOPS is the peak mixed-precision (tensor-core) throughput.
	TensorTFLOPS float64
	// MemBandwidthGBs is the device memory bandwidth in GB/s.
	MemBandwidthGBs float64
	// PCIeGBs is the host↔device transfer bandwidth in GB/s.
	PCIeGBs float64
	// NVLinkGBs is the intra-node GPU↔GPU bandwidth in GB/s
	// (0 when the node has a single GPU or no NVLink).
	NVLinkGBs float64
	// Efficiency is the fraction of peak throughput realistically
	// sustained by DL kernels (≈0.3–0.5 in practice).
	Efficiency float64
}

// EffectiveFLOPS returns the sustained FLOP/s the simulator charges compute
// kernels against.
func (g GPU) EffectiveFLOPS() float64 {
	eff := g.Efficiency
	if eff <= 0 {
		eff = 0.35
	}
	return g.FP32TFLOPS * 1e12 * eff
}

// CPU describes one host processor.
type CPU struct {
	// Name is the marketing name.
	Name string
	// Cores is the number of physical cores.
	Cores int
	// BaseGHz is the base clock.
	BaseGHz float64
}

// Network describes the cluster interconnect.
type Network struct {
	// Name is the fabric name, e.g. "InfiniBand EDR".
	Name string
	// LatencyUS is the one-way small-message latency in microseconds.
	LatencyUS float64
	// BandwidthGBs is the per-link bandwidth in GB/s.
	BandwidthGBs float64
	// Links is the number of network adapters per node.
	Links int
}

// EffectiveBandwidth returns the aggregate injection bandwidth per node in
// bytes per second.
func (n Network) EffectiveBandwidth() float64 {
	links := n.Links
	if links <= 0 {
		links = 1
	}
	return n.BandwidthGBs * 1e9 * float64(links)
}

// Latency returns the one-way latency in seconds.
func (n Network) Latency() float64 { return n.LatencyUS * 1e-6 }

// Node describes one compute node.
type Node struct {
	CPUs        []CPU
	GPUs        []GPU
	GPUsPerNode int
}

// TotalCores returns the node's physical core count.
func (n Node) TotalCores() int {
	total := 0
	for _, c := range n.CPUs {
		total += c.Cores
	}
	return total
}

// System is a complete cluster description.
type System struct {
	// Name identifies the system, e.g. "DEEP".
	Name string
	// Nodes is the number of nodes available.
	Nodes int
	// Node is the per-node hardware.
	Node Node
	// Network is the inter-node fabric.
	Network Network
	// NCCL reports whether GPU-direct NCCL collectives are available;
	// without it gradient exchange is staged through host memory and MPI
	// (the DEEP configuration in the paper).
	NCCL bool
	// CoresPerRank is ϱ of the cost model (Eq. 14): CPU cores charged per
	// MPI rank.
	CoresPerRank int
}

// Validate checks the system description for usability.
func (s System) Validate() error {
	if s.Name == "" {
		return errors.New("hardware: system has no name")
	}
	if s.Nodes <= 0 {
		return fmt.Errorf("hardware: %s has %d nodes", s.Name, s.Nodes)
	}
	if len(s.Node.GPUs) == 0 {
		return fmt.Errorf("hardware: %s nodes have no GPUs", s.Name)
	}
	if s.Node.GPUsPerNode <= 0 {
		return fmt.Errorf("hardware: %s has no GPUs per node", s.Name)
	}
	if s.Network.BandwidthGBs <= 0 || s.Network.LatencyUS <= 0 {
		return fmt.Errorf("hardware: %s network parameters incomplete", s.Name)
	}
	if s.CoresPerRank <= 0 {
		return fmt.Errorf("hardware: %s cores per rank not set", s.Name)
	}
	return nil
}

// GPU returns the node's (homogeneous) GPU model.
func (s System) GPU() GPU { return s.Node.GPUs[0] }

// MaxRanks returns the maximum number of single-GPU MPI ranks the system
// supports (one rank per GPU, as in the paper's experiments).
func (s System) MaxRanks() int { return s.Nodes * s.Node.GPUsPerNode }

// NodesFor returns the number of nodes required to host the given number
// of single-GPU ranks.
func (s System) NodesFor(ranks int) int {
	g := s.Node.GPUsPerNode
	return (ranks + g - 1) / g
}

// DEEP returns the DEEP (Extreme Scale Booster) description of Table 1:
// 75 nodes, one 8-core Xeon Cascade Lake Silver 4215 each, 48 GB DDR4,
// InfiniBand EDR (100 Gbit/s), one V100 per node, no NCCL support.
func DEEP() System {
	return System{
		Name:  "DEEP",
		Nodes: 75,
		Node: Node{
			CPUs:        []CPU{{Name: "Xeon Cascade Lake Silver 4215", Cores: 8, BaseGHz: 2.5}},
			GPUs:        []GPU{V100()},
			GPUsPerNode: 1,
		},
		Network: Network{
			Name:         "InfiniBand EDR",
			LatencyUS:    1.5,
			BandwidthGBs: 12.5, // 100 Gbit/s
			Links:        1,
		},
		NCCL:         false,
		CoresPerRank: 8,
	}
}

// JURECA returns the JURECA-DC description of Table 1: 192 nodes, two
// 64-core AMD EPYC 7742 each, 512 GB DDR4, dual InfiniBand HDR, four A100
// GPUs per node with NCCL support.
func JURECA() System {
	return System{
		Name:  "JURECA",
		Nodes: 192,
		Node: Node{
			CPUs:        []CPU{{Name: "AMD EPYC 7742", Cores: 64, BaseGHz: 2.25}, {Name: "AMD EPYC 7742", Cores: 64, BaseGHz: 2.25}},
			GPUs:        []GPU{A100(), A100(), A100(), A100()},
			GPUsPerNode: 4,
		},
		Network: Network{
			Name:         "InfiniBand HDR",
			LatencyUS:    1.0,
			BandwidthGBs: 25, // 200 Gbit/s per link
			Links:        2,
		},
		NCCL:         true,
		CoresPerRank: 32, // 128 cores shared by 4 GPU ranks
	}
}

// V100 returns an NVIDIA V100 (SXM2 16 GB) description.
func V100() GPU {
	return GPU{
		Name:            "V100",
		FP32TFLOPS:      15.7,
		TensorTFLOPS:    125,
		MemBandwidthGBs: 900,
		PCIeGBs:         16,
		NVLinkGBs:       0, // single GPU per DEEP node
		Efficiency:      0.35,
	}
}

// A100 returns an NVIDIA A100 (SXM4 40 GB) description.
func A100() GPU {
	return GPU{
		Name:            "A100",
		FP32TFLOPS:      19.5,
		TensorTFLOPS:    312,
		MemBandwidthGBs: 1555,
		PCIeGBs:         32,
		NVLinkGBs:       600,
		Efficiency:      0.4,
	}
}

// Systems returns the built-in systems keyed by name.
func Systems() map[string]System {
	return map[string]System{"DEEP": DEEP(), "JURECA": JURECA()}
}

// ByName looks up a built-in system by name.
func ByName(name string) (System, error) {
	s, ok := Systems()[name]
	if !ok {
		return System{}, fmt.Errorf("hardware: unknown system %q (have DEEP, JURECA)", name)
	}
	return s, nil
}
