// Package chip models continuous-flow microfluidic biochips mapped onto a
// virtual connection grid: devices (mixers, detectors) sit on grid nodes,
// flow channels occupy grid edges, and every channel edge is guarded by a
// microvalve. External ports sit on boundary nodes and are where pressure
// sources and meters attach during post-manufacture test.
//
// The package also models the control layer abstractly: each valve is
// actuated by a control line; DFT valves may share a line with an original
// valve (the paper's valve-sharing scheme), in which case the two always
// open and close together.
package chip

import (
	"fmt"
	"sort"

	"repro/internal/grid"
)

// DeviceKind classifies on-chip devices.
type DeviceKind int

// Device kinds. Mixer and Detector are the kinds used by the paper's
// benchmarks; Heater and Filter exist for custom chips.
const (
	Mixer DeviceKind = iota
	Detector
	Heater
	Filter
)

func (k DeviceKind) String() string {
	switch k {
	case Mixer:
		return "mixer"
	case Detector:
		return "detector"
	case Heater:
		return "heater"
	case Filter:
		return "filter"
	}
	return "unknown"
}

// Device is an on-chip functional unit occupying one grid node.
type Device struct {
	ID   int
	Kind DeviceKind
	Name string
	Node int
}

// Port is an external opening on the chip boundary where a pressure source
// or meter can attach during test, and where fluids enter/leave during
// operation.
type Port struct {
	ID   int
	Name string
	Node int
}

// Valve is a microvalve guarding one channel edge. DFT marks valves added
// by the design-for-testability augmentation.
type Valve struct {
	ID   int
	Edge int
	DFT  bool
}

// Chip is a biochip netlist on a connection grid.
type Chip struct {
	Name    string
	Grid    *grid.Grid
	Devices []Device
	Ports   []Port

	valves      []Valve
	valveOfEdge []int // grid edge -> valve ID, -1 if unoccupied
	numOriginal int   // valves[0:numOriginal] are original
}

// NumValves returns the total valve count (original + DFT).
func (c *Chip) NumValves() int { return len(c.valves) }

// NumOriginalValves returns the count of valves present before DFT.
func (c *Chip) NumOriginalValves() int { return c.numOriginal }

// NumDFTValves returns the count of valves added for DFT.
func (c *Chip) NumDFTValves() int { return len(c.valves) - c.numOriginal }

// Valves returns all valves; the slice is shared, do not mutate.
func (c *Chip) Valves() []Valve { return c.valves }

// Valve returns valve v.
func (c *Chip) Valve(v int) Valve { return c.valves[v] }

// ValveOnEdge returns the valve guarding a grid edge.
func (c *Chip) ValveOnEdge(edge int) (int, bool) {
	v := c.valveOfEdge[edge]
	return v, v >= 0
}

// ChannelEdges returns all occupied (valved) grid edges, sorted.
func (c *Chip) ChannelEdges() []int {
	out := make([]int, 0, len(c.valves))
	for _, v := range c.valves {
		out = append(out, v.Edge)
	}
	sort.Ints(out)
	return out
}

// OriginalEdges returns the grid edges occupied before DFT, sorted.
func (c *Chip) OriginalEdges() []int {
	out := make([]int, 0, c.numOriginal)
	for _, v := range c.valves[:c.numOriginal] {
		out = append(out, v.Edge)
	}
	sort.Ints(out)
	return out
}

// AddDFTChannel occupies a previously free grid edge with a new channel and
// valve, returning the new valve's ID.
func (c *Chip) AddDFTChannel(edge int) (int, error) {
	if edge < 0 || edge >= c.Grid.NumEdges() {
		return 0, fmt.Errorf("chip %s: edge %d out of range", c.Name, edge)
	}
	if c.valveOfEdge[edge] >= 0 {
		return 0, fmt.Errorf("chip %s: edge %d already occupied by valve %d", c.Name, edge, c.valveOfEdge[edge])
	}
	id := len(c.valves)
	c.valves = append(c.valves, Valve{ID: id, Edge: edge, DFT: true})
	c.valveOfEdge[edge] = id
	return id, nil
}

// Clone deep-copies the chip (sharing the immutable grid).
func (c *Chip) Clone() *Chip {
	nc := &Chip{
		Name:        c.Name,
		Grid:        c.Grid,
		Devices:     append([]Device(nil), c.Devices...),
		Ports:       append([]Port(nil), c.Ports...),
		valves:      append([]Valve(nil), c.valves...),
		valveOfEdge: append([]int(nil), c.valveOfEdge...),
		numOriginal: c.numOriginal,
	}
	return nc
}

// DeviceAt returns the device occupying a node, if any.
func (c *Chip) DeviceAt(node int) (Device, bool) {
	for _, d := range c.Devices {
		if d.Node == node {
			return d, true
		}
	}
	return Device{}, false
}

// PortAt returns the port at a node, if any.
func (c *Chip) PortAt(node int) (Port, bool) {
	for _, p := range c.Ports {
		if p.Node == node {
			return p, true
		}
	}
	return Port{}, false
}

// MaxDistantPortPair returns the two port IDs with the largest hop distance
// over the channel network, the pair the paper selects as test source and
// meter ("we used the two ports between which the distance is the largest").
// Unreachable pairs rank above all reachable ones (they force the DFT step
// to connect them). Ties break towards lower port IDs.
func (c *Chip) MaxDistantPortPair() (a, b int) {
	if len(c.Ports) < 2 {
		panic(fmt.Sprintf("chip %s: need at least 2 ports", c.Name))
	}
	g := c.Grid.Graph()
	allow := c.channelAllow()
	bestA, bestB, bestD := 0, 1, -1
	for i := 0; i < len(c.Ports); i++ {
		dist := g.BFSFrom(c.Ports[i].Node, allow)
		for j := i + 1; j < len(c.Ports); j++ {
			d := dist[c.Ports[j].Node]
			if d < 0 {
				// Disconnected: use grid Manhattan distance plus a large
				// offset so disconnected pairs dominate.
				d = c.Grid.NumNodes() + grid.Manhattan(c.Grid.CoordOf(c.Ports[i].Node), c.Grid.CoordOf(c.Ports[j].Node))
			}
			if d > bestD {
				bestA, bestB, bestD = i, j, d
			}
		}
	}
	return bestA, bestB
}

// channelAllow returns an edge filter admitting only valved (channel) edges.
func (c *Chip) channelAllow() func(edge int) bool {
	return func(e int) bool { return c.valveOfEdge[e] >= 0 }
}

// PressureReachable reports whether air pressure applied at srcNode reaches
// dstNode when exactly the valves with open[v]==true are open. Pressure
// propagates only through channel edges whose valve is open.
func (c *Chip) PressureReachable(srcNode, dstNode int, open []bool) bool {
	if len(open) != len(c.valves) {
		panic(fmt.Sprintf("chip %s: open vector has %d entries for %d valves", c.Name, len(open), len(c.valves)))
	}
	return c.Grid.Graph().Reachable(srcNode, dstNode, func(e int) bool {
		v := c.valveOfEdge[e]
		return v >= 0 && open[v]
	})
}

// Stats summarizes the chip for reports.
type Stats struct {
	Name                         string
	Mixers, Detectors, OtherDevs int
	Ports                        int
	OriginalValves, DFTValves    int
	GridW, GridH                 int
	FreeEdges                    int // unoccupied grid edges (DFT candidates)
}

// Stats computes summary statistics.
func (c *Chip) Stats() Stats {
	s := Stats{
		Name:           c.Name,
		Ports:          len(c.Ports),
		OriginalValves: c.numOriginal,
		DFTValves:      c.NumDFTValves(),
		GridW:          c.Grid.W,
		GridH:          c.Grid.H,
	}
	for _, d := range c.Devices {
		switch d.Kind {
		case Mixer:
			s.Mixers++
		case Detector:
			s.Detectors++
		default:
			s.OtherDevs++
		}
	}
	s.FreeEdges = c.Grid.NumEdges() - len(c.valves)
	return s
}

func (c *Chip) String() string {
	s := c.Stats()
	return fmt.Sprintf("%s: %dx%d grid, %d mixers, %d detectors, %d ports, %d valves (%d DFT)",
		s.Name, s.GridW, s.GridH, s.Mixers, s.Detectors, s.Ports,
		s.OriginalValves+s.DFTValves, s.DFTValves)
}
