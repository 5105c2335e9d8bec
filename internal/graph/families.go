package graph

import (
	"fmt"
	"math/rand"
)

// Clique returns the complete graph K_n (the paper's single-hop topology).
func Clique(n int) *Graph {
	g := New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// Line returns the path graph on n nodes (diameter n-1). The paper writes
// L_d for the line with d+1 nodes; Line(d+1) constructs it.
func Line(n int) *Graph {
	g := New(n)
	for u := 0; u+1 < n; u++ {
		g.AddEdge(u, u+1)
	}
	return g
}

// Ring returns the cycle graph on n >= 3 nodes.
func Ring(n int) *Graph {
	if n < 3 {
		panic(fmt.Sprintf("graph: ring needs >= 3 nodes, got %d", n))
	}
	g := Line(n)
	g.AddEdge(n-1, 0)
	return g
}

// Star returns the star graph: node 0 is the hub, nodes 1..n-1 are leaves.
func Star(n int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

// Grid returns the rows x cols grid graph (diameter rows+cols-2).
func Grid(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: invalid grid %dx%d", rows, cols))
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// BalancedTree returns the complete b-ary tree of the given depth
// (depth 0 is a single root). Node 0 is the root; children of u are
// appended in breadth-first order.
func BalancedTree(branch, depth int) *Graph {
	if branch < 1 || depth < 0 {
		panic(fmt.Sprintf("graph: invalid tree branch=%d depth=%d", branch, depth))
	}
	// Count nodes: sum_{i=0..depth} branch^i.
	total := 1
	level := 1
	for i := 0; i < depth; i++ {
		level *= branch
		total += level
	}
	g := New(total)
	next := 1
	for u := 0; next < total; u++ {
		for c := 0; c < branch && next < total; c++ {
			g.AddEdge(u, next)
			next++
		}
	}
	return g
}

// StarOfLines returns `arms` disjoint paths of length armLen joined at a
// central hub (node 0). It is the bottleneck topology of floodpaxos's
// TestSlowerThanWPaxosOnBottleneck: diameter 2*armLen while the hub must
// relay Theta(n) information, which is exactly where per-id flooding
// degrades to Theta(n*Fack).
func StarOfLines(arms, armLen int) *Graph {
	if arms < 1 || armLen < 1 {
		panic(fmt.Sprintf("graph: invalid star-of-lines arms=%d armLen=%d", arms, armLen))
	}
	g := New(1 + arms*armLen)
	node := 1
	for a := 0; a < arms; a++ {
		prev := 0
		for i := 0; i < armLen; i++ {
			g.AddEdge(prev, node)
			prev = node
			node++
		}
	}
	return g
}

// RandomOverlay returns a graph on the same node set as g containing up to
// `extra` edges chosen uniformly among the non-edges of g (without
// replacement). It is the unreliable-link overlay for the dual-graph model
// variant: edge-disjoint from g by construction. Deterministic for a given
// seed.
func RandomOverlay(g *Graph, extra int, seed int64) *Graph {
	if extra < 0 {
		panic(fmt.Sprintf("graph: negative overlay size %d", extra))
	}
	n := g.N()
	var nonEdges [][2]int
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) {
				nonEdges = append(nonEdges, [2]int{u, v})
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(nonEdges), func(i, j int) {
		nonEdges[i], nonEdges[j] = nonEdges[j], nonEdges[i]
	})
	if extra > len(nonEdges) {
		extra = len(nonEdges)
	}
	// Canonical emission yields the same sorted adjacency rows the old
	// build-then-Sort pass produced, without the extra O(m log d) pass.
	return FromEdges(n, nonEdges[:extra])
}

// RandomConnected returns a random connected graph on n nodes: a uniform
// random spanning tree (random attachment) plus each remaining pair added
// independently with probability p. Deterministic for a given seed.
func RandomConnected(n int, p float64, seed int64) *Graph {
	if n < 1 {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: invalid edge probability %v", p))
	}
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	// Random attachment tree keeps the graph connected with varied shape.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		g.AddEdge(perm[i], perm[rng.Intn(i)])
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !g.HasEdge(u, v) && rng.Float64() < p {
				g.AddEdge(u, v)
			}
		}
	}
	return g
}
