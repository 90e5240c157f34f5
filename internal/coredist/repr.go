// Package coredist implements the paper's core subroutines as real CONGEST
// protocols on the simulator: CoreSlow (Algorithm 1, §5.3), CoreFast
// (Algorithm 2, §5.4) and the canonical full-ancestor witness shortcut.
// Package findshort composes them with the Verification subroutine (§5.5,
// package partops) into the FindShortcut framework (Theorem 3) and the
// Appendix A doubling driver.
//
// Every protocol ends with the distributed shortcut representation of §4.1:
// each node knows, for each of its incident tree edges, the set of part IDs
// routed over that edge and whether the edge is usable. The package also
// provides converters/checkers lifting that per-node state into a
// core.Shortcut so tests can assert exact equivalence with the centralized
// reference algorithms.
package coredist

import (
	"fmt"
	"sort"

	"lcshortcut/internal/bfsproto"
	"lcshortcut/internal/core"
	"lcshortcut/internal/graph"
	"lcshortcut/internal/partition"
	"lcshortcut/internal/tree"
)

// NodeShortcut is one node's view of a computed T-restricted shortcut
// (the distributed representation of §4.1). Child edge state lives in flat
// slices aligned with Info.Children — the per-node maps this replaced made
// the accumulator the construction's allocation hot spot.
type NodeShortcut struct {
	// Info is the node's BFS phase output (tree structure + globals).
	Info *bfsproto.Info
	// ParentUsable reports whether the parent edge survived the core
	// subroutine (false at the root, where there is no parent edge).
	ParentUsable bool
	// ParentParts lists, sorted, the parts whose H_i contains the parent
	// edge.
	ParentParts []int
	// ChildParts[k] lists, sorted, the parts on the edge to
	// Info.Children[k]; nil when the edge is unusable or carries none.
	// nil (as a whole) on states that never saw child traffic.
	ChildParts [][]int
	// ChildUsable[k] is the usability of the edge to Info.Children[k].
	ChildUsable []bool

	// childOrder caches child indices sorted by child node ID: the binary-
	// search index behind ChildIndex. Built lazily so literal-constructed
	// states (tests) work.
	childOrder []int32
}

func newNodeShortcut(info *bfsproto.Info) *NodeShortcut {
	ns := &NodeShortcut{
		Info:        info,
		ChildParts:  make([][]int, len(info.Children)),
		ChildUsable: make([]bool, len(info.Children)),
	}
	ns.buildChildOrder()
	return ns
}

func (ns *NodeShortcut) buildChildOrder() {
	ns.childOrder = make([]int32, len(ns.Info.Children))
	for k := range ns.childOrder {
		ns.childOrder[k] = int32(k)
	}
	sort.Slice(ns.childOrder, func(a, b int) bool {
		return ns.Info.Children[ns.childOrder[a]] < ns.Info.Children[ns.childOrder[b]]
	})
}

// ChildIndex returns the index into Info.Children of child node ch, or -1
// when ch is not a tree child of this node.
func (ns *NodeShortcut) ChildIndex(ch graph.NodeID) int {
	if ns.childOrder == nil {
		if len(ns.Info.Children) == 0 {
			return -1
		}
		ns.buildChildOrder()
	}
	lo, hi := 0, len(ns.childOrder)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns.Info.Children[ns.childOrder[mid]] < ch {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ns.childOrder) && ns.Info.Children[ns.childOrder[lo]] == ch {
		return int(ns.childOrder[lo])
	}
	return -1
}

// ChildPartsAt returns ChildParts[k], tolerating literal-constructed states
// with nil slices.
func (ns *NodeShortcut) ChildPartsAt(k int) []int {
	if k < 0 || k >= len(ns.ChildParts) {
		return nil
	}
	return ns.ChildParts[k]
}

// ChildUsableAt returns ChildUsable[k], tolerating nil slices.
func (ns *NodeShortcut) ChildUsableAt(k int) bool {
	if k < 0 || k >= len(ns.ChildUsable) {
		return false
	}
	return ns.ChildUsable[k]
}

// ToShortcut lifts per-node distributed state into a centralized
// core.Shortcut (edge part lists read from each edge's child endpoint), for
// verification against reference implementations. It also cross-checks that
// the two endpoints of every tree edge agree on the edge's part list, and
// core.NewShortcut rejects lists that are unsorted or name invalid parts.
func ToShortcut(g *graph.Graph, p *partition.Partition, states []*NodeShortcut) (*core.Shortcut, *tree.Tree, error) {
	root := graph.NodeID(-1)
	parents := make([]graph.NodeID, g.NumNodes())
	for v, ns := range states {
		if ns == nil {
			return nil, nil, fmt.Errorf("coredist: node %d has no state", v)
		}
		parents[v] = ns.Info.Parent
		if ns.Info.Parent == -1 {
			root = v
		}
	}
	if root == -1 {
		return nil, nil, fmt.Errorf("coredist: no root found")
	}
	tr, err := tree.FromParents(g, root, parents)
	if err != nil {
		return nil, nil, fmt.Errorf("coredist: invalid tree: %w", err)
	}
	edgeParts := make([][]int, g.NumEdges())
	for v, ns := range states {
		if v == root {
			continue
		}
		par := states[ns.Info.Parent]
		k := par.ChildIndex(v)
		fromParent := par.ChildPartsAt(k)
		if fromParent == nil && len(ns.ParentParts) > 0 {
			return nil, nil, fmt.Errorf("coredist: parent of %d lost its child part list", v)
		}
		if !equalInts(ns.ParentParts, fromParent) {
			return nil, nil, fmt.Errorf("coredist: edge (%d,%d) endpoint disagreement: child %v, parent %v",
				v, ns.Info.Parent, ns.ParentParts, fromParent)
		}
		if k >= 0 && len(par.ChildUsable) > 0 && par.ChildUsableAt(k) != ns.ParentUsable {
			return nil, nil, fmt.Errorf("coredist: edge (%d,%d) usability disagreement", v, ns.Info.Parent)
		}
		if len(ns.ParentParts) > 0 {
			if !ns.ParentUsable {
				return nil, nil, fmt.Errorf("coredist: node %d has parts on an unusable parent edge", v)
			}
			edgeParts[tr.ParentEdge(v)] = append([]int(nil), ns.ParentParts...)
		}
	}
	s, err := core.NewShortcut(tr, p, edgeParts)
	if err != nil {
		return nil, nil, fmt.Errorf("coredist: invalid shortcut: %w", err)
	}
	return s, tr, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sortedInsert inserts x into sorted unique slice list.
func sortedInsert(list []int, x int) []int {
	k := sort.SearchInts(list, x)
	if k < len(list) && list[k] == x {
		return list
	}
	list = append(list, 0)
	copy(list[k+1:], list[k:])
	list[k] = x
	return list
}
