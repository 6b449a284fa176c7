// Package sim executes generated CIM programs bit-exactly and accounts for
// their latency, energy, and reliability — the role the extended gem5 plays
// in the paper's toolchain.
//
// One engine executes: Predecode validates a program once in strict mode
// (reading a never-defined cell or buffer bit is an error) and its Exec runs
// on ExecMachines, 64 input vectors per lane word, optionally flipping sense
// decisions with their decision-failure probability to check the analytical
// P_app model. Tests hold it against the reference interpreter in simref.
package sim

import (
	"fmt"

	"sherlock/internal/arraymodel"
	"sherlock/internal/isa"
)

// Cost is the accounted execution cost of a program on one array
// configuration. Latency assumes the arrays share a command bus and execute
// one instruction at a time (the conservative model the paper's latency
// numbers imply); energy is the sum over instructions.
type Cost struct {
	LatencyNS float64
	EnergyPJ  float64

	// Breakdown by instruction class.
	ReadNS, WriteNS, ShiftNS, NotNS, HostNS float64
	ReadPJ, WritePJ, ShiftPJ, NotPJ, HostPJ float64
}

// LatencyUS returns the latency in microseconds.
func (c Cost) LatencyUS() float64 { return c.LatencyNS / 1e3 }

// EnergyUJ returns the energy in microjoules.
func (c Cost) EnergyUJ() float64 { return c.EnergyPJ / 1e6 }

// EDP returns the energy-delay product in pJ·ns (the Fig. 7 metric up to a
// constant factor).
func (c Cost) EDP() float64 { return c.EnergyPJ * c.LatencyNS }

// ScaleEnergy multiplies every energy component by f (e.g. the SIMD lane
// count of the macro); latency is unaffected.
func (c Cost) ScaleEnergy(f float64) Cost {
	c.EnergyPJ *= f
	c.ReadPJ *= f
	c.WritePJ *= f
	c.ShiftPJ *= f
	c.NotPJ *= f
	c.HostPJ *= f
	return c
}

// interArrayBusNS/PJ cost the cross-array write path on top of a regular
// write: one hop over the inter-array bus.
const (
	interArrayBusNS       = 2.0
	interArrayBusPJPerCol = 0.5
)

// Measure accounts latency and energy for the program under the cost model.
func Measure(p isa.Program, m *arraymodel.CostModel) (Cost, error) {
	var c Cost
	for i, in := range p {
		if err := in.Validate(); err != nil {
			return Cost{}, fmt.Errorf("sim: instruction %d (%s): %w", i, in, err)
		}
		ns := instrLatency(in, m)
		switch in.Kind {
		case isa.KindRead:
			c.ReadNS += ns
			c.ReadPJ += m.ReadEnergyPJ(len(in.Cols), len(in.Rows))
		case isa.KindWrite:
			switch {
			case in.IsHostWrite():
				c.HostNS += ns
				c.HostPJ += m.HostWriteEnergyPJ(len(in.Cols))
			case in.HasSrcArray:
				c.WriteNS += ns
				c.WritePJ += m.WriteEnergyPJ(len(in.Cols)) + interArrayBusPJPerCol*float64(len(in.Cols))
			default:
				c.WriteNS += ns
				c.WritePJ += m.WriteEnergyPJ(len(in.Cols))
			}
		case isa.KindShift:
			c.ShiftNS += ns
			c.ShiftPJ += m.ShiftEnergyPJ(in.ShiftBy)
		case isa.KindNot:
			c.NotNS += ns
			c.NotPJ += m.NotEnergyPJ(len(in.Cols))
		}
	}
	c.LatencyNS = c.ReadNS + c.WriteNS + c.ShiftNS + c.NotNS + c.HostNS
	c.EnergyPJ = c.ReadPJ + c.WritePJ + c.ShiftPJ + c.NotPJ + c.HostPJ
	return c, nil
}

// instrLatency is the one per-kind latency table: Measure sums it per
// instruction class, Schedule places each instruction for that long.
func instrLatency(in isa.Instruction, m *arraymodel.CostModel) float64 {
	switch in.Kind {
	case isa.KindRead:
		return m.ReadNS(len(in.Rows))
	case isa.KindWrite:
		switch {
		case in.IsHostWrite():
			return m.HostWriteNS()
		case in.HasSrcArray:
			return m.WriteNS() + interArrayBusNS
		default:
			return m.WriteNS()
		}
	case isa.KindShift:
		return m.ShiftNS(in.ShiftBy)
	case isa.KindNot:
		return m.NotNS()
	}
	panic(fmt.Sprintf("sim: latency of invalid instruction %v", in.Kind))
}
