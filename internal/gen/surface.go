package gen

import (
	"fmt"

	"lcshortcut/internal/graph"
)

// SurfaceMesh returns a bounded-degree mesh of an orientable surface of
// genus at most g: a W×H grid with g handles, where — unlike HandledGrid's
// single long-range edges — each handle is a genuine tube of quad rings
// glued between two far-apart unit faces of the grid. Attaching a cylinder
// between two disjoint faces of an embedded graph lowers the Euler
// characteristic by exactly 2, so the result embeds on the genus-g surface;
// every vertex keeps degree <= 5. This is the structured genus-g family the
// paper's Theorem 1 targets (shortcuts with congestion O(g·D·log D) found
// without ever computing the embedding the construction above makes
// explicit).
//
// Handle t connects the face at column x_t of row 1 to the face at column
// x_t of row h-3, with the columns spread uniformly; each tube has `tube`
// rings of 4 fresh vertices. Grid vertices occupy [0, w*h) exactly as in
// Grid; tube vertices follow, handle by handle, ring by ring. The mesh is
// connected, deterministic, and has w*h + 4*tube*g vertices and
// (w-1)*h + w*(h-1) + g*(8*tube+4) edges.
func SurfaceMesh(w, h, g, tube int) *graph.Graph {
	if g < 0 || tube < 1 {
		panic(fmt.Sprintf("gen: surface mesh needs genus >= 0 and tube >= 1, got g=%d tube=%d", g, tube))
	}
	if g == 0 {
		return Grid(w, h)
	}
	stride := (w - 3) / g
	if stride < 2 || h < 6 {
		panic(fmt.Sprintf("gen: %dx%d grid too small for %d handles (need w >= 2*g+3, h >= 6)", w, h, g))
	}
	edges := appendGrid(make([]graph.Edge, 0, gridEdges(w, h)+g*(8*tube+4)), w, h)
	gi := GridIndexer{W: w, H: h}
	// face returns the 4-cycle bounding the unit face with lower-left corner
	// (x, y), in cyclic order.
	face := func(x, y int) [4]graph.NodeID {
		return [4]graph.NodeID{gi.Node(x, y), gi.Node(x+1, y), gi.Node(x+1, y+1), gi.Node(x, y+1)}
	}
	next := w * h
	yA, yB := 1, h-3
	for t := 0; t < g; t++ {
		x := 1 + t*stride
		a, c := face(x, yA), face(x, yB)
		// Rings of the tube: ring[i] is matched index-to-index with the
		// previous ring (the face cycle for the first, ring r-1 after).
		prev := a
		for r := 0; r < tube; r++ {
			var ring [4]graph.NodeID
			for i := range ring {
				ring[i] = next
				next++
			}
			for i := range ring {
				edges = append(edges,
					unit(ring[i], ring[(i+1)%4]), // ring cycle
					unit(prev[i], ring[i]))       // glue to previous ring / face A
			}
			prev = ring
		}
		for i := range c {
			edges = append(edges, unit(prev[i], c[i])) // glue the last ring to face B
		}
	}
	return graph.MustFromEdges(w*h+4*tube*g, edges)
}
