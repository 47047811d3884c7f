package chip

import "fmt"

// Control assigns every valve to a control line. Original valves own lines
// 0..NumOriginalValves-1. A DFT valve either shares the line of an original
// valve (the paper's valve-sharing scheme, requiring no new control ports)
// or owns a fresh line (independent control, Fig. 7's scenario).
type Control struct {
	chip   *Chip
	lineOf []int // valve ID -> line
	nLines int
}

// IndependentControl gives every valve (original and DFT) its own line.
func IndependentControl(c *Chip) *Control {
	ct := &Control{chip: c, lineOf: make([]int, c.NumValves()), nLines: c.NumValves()}
	for i := range ct.lineOf {
		ct.lineOf[i] = i
	}
	return ct
}

// SharedControl builds a control assignment where DFT valve i (the i-th
// valve with ID >= NumOriginalValves) shares the control line of original
// valve partner[i]. Every original valve may host at most one DFT valve.
// A partner of -1 gives that DFT valve its own fresh control line (partial
// sharing — a fallback for chips where no full sharing scheme validates).
func SharedControl(c *Chip, partner []int) (*Control, error) {
	nOrig := c.NumOriginalValves()
	nDFT := c.NumDFTValves()
	if len(partner) != nDFT {
		return nil, fmt.Errorf("chip %s: %d partners for %d DFT valves", c.Name, len(partner), nDFT)
	}
	ct := &Control{chip: c, lineOf: make([]int, c.NumValves()), nLines: nOrig}
	for v := 0; v < nOrig; v++ {
		ct.lineOf[v] = v
	}
	// used[p] is the DFT valve already sharing original valve p's line, 0
	// for none (DFT valve IDs start at nOrig, which is at least 1 once any
	// partner is valid). Up to 64 original valves it lives on the stack,
	// so building a scheme allocates only the Control and its line table.
	var buf [64]int
	used := buf[:]
	if nOrig > len(buf) {
		used = make([]int, nOrig)
	}
	for i, p := range partner {
		if p == -1 {
			ct.lineOf[nOrig+i] = ct.nLines
			ct.nLines++
			continue
		}
		if p < 0 || p >= nOrig {
			return nil, fmt.Errorf("chip %s: DFT valve %d names invalid partner %d", c.Name, nOrig+i, p)
		}
		if prev := used[p]; prev > 0 {
			return nil, fmt.Errorf("chip %s: original valve %d shared by DFT valves %d and %d", c.Name, p, prev, nOrig+i)
		}
		used[p] = nOrig + i
		ct.lineOf[nOrig+i] = p
	}
	return ct, nil
}

// Chip returns the chip this control layer drives.
func (ct *Control) Chip() *Chip { return ct.chip }

// NumLines returns the number of distinct control lines (= control ports).
func (ct *Control) NumLines() int { return ct.nLines }

// LineOf returns the control line actuating valve v.
func (ct *Control) LineOf(v int) int { return ct.lineOf[v] }

// NumShared returns how many DFT valves share a line with an original valve.
func (ct *Control) NumShared() int {
	nOrig := ct.chip.NumOriginalValves()
	n := 0
	for v := nOrig; v < ct.chip.NumValves(); v++ {
		if ct.lineOf[v] < nOrig {
			n++
		}
	}
	return n
}

// ExpandInto writes into open (one flag per valve) the actual valve states
// when the given valves are applied under sharing, using lines as scratch
// (at least NumLines entries; its contents are overwritten). A line is
// driven iff it controls at least one of valves. For a test path (cut
// false) the driven lines open and every other line stays closed; for a
// test cut (cut true) the driven lines close and every other line stays
// open. So opening a DFT valve also opens its partner, and closing an
// original valve also closes the DFT valve on its line. It allocates
// nothing.
func (ct *Control) ExpandInto(valves []int, cut bool, open, lines []bool) {
	ct.checkLen(open)
	lines = lines[:ct.nLines]
	clear(lines)
	for _, v := range valves {
		lines[ct.lineOf[v]] = true
	}
	for v := range open {
		open[v] = lines[ct.lineOf[v]] != cut
	}
}

func (ct *Control) checkLen(s []bool) {
	if len(s) != ct.chip.NumValves() {
		panic(fmt.Sprintf("chip %s: state vector has %d entries for %d valves", ct.chip.Name, len(s), ct.chip.NumValves()))
	}
}
