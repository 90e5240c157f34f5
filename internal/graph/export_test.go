package graph

// These give the external tests of this package (partdiameter_test.go) the
// all-pairs reference, ExactDiameter's BFS count and a graph's CSR.

var AllPairsDiameter = allPairsDiameter

// DiameterSweeps returns how many BFSs the last ExactDiameter call on s ran.
func DiameterSweeps(s *Scratch) int { return s.sweeps }

// CSR returns g's adjacency offsets and targets.
func CSR(g *Graph) (off, to []int32) { return g.arcOffsets, g.arcTo }
