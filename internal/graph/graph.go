// Package graph implements the unstructured-mesh substrate of the paper's
// Unstructured benchmark: an irregular graph (256 nodes, 1024 edges in the
// paper's configuration) whose vertices are relaxed toward the average of
// their neighbours each iteration.
//
// The topology is built deterministically from a seed with a small
// linear-congruential generator, statically partitioned into contiguous
// vertex ranges.  A random graph partitioned this way has many
// cross-processor edges — the property the paper relies on ("the graph
// data structure has many cross-processor edges that cause communication
// under [Stache] as well as LCM").
package graph

import "fmt"

// Topology is a symmetric graph in CSR form, in plain Go memory: it is
// built before the machine runs, and a workload copies it into whatever
// simulated aggregates it keeps the graph in.
type Topology struct {
	N       int
	Offsets []int32 // len N+1
	Targets []int32 // len 2*E (each undirected edge stored twice)
}

// Build creates a deterministic pseudo-random connected multigraph with n
// vertices and e undirected edges.  A Hamiltonian-style ring guarantees
// connectivity; remaining edges are uniform random pairs of distinct
// vertices, so there must be two vertices to draw them from and at least as
// many edges as the ring needs.
func Build(n, e int, seed uint64) (*Topology, error) {
	if n < 2 || e < n {
		return nil, fmt.Errorf("graph: %d vertices and %d edges: need at least 2 vertices and as many edges as vertices", n, e)
	}
	type pair struct{ a, b int32 }
	edges := make([]pair, 0, e)
	for i := 0; i < n; i++ {
		edges = append(edges, pair{int32(i), int32((i + 1) % n)})
	}
	x := seed*2862933555777941757 + 3037000493
	next := func(mod int) int32 {
		x = x*2862933555777941757 + 3037000493
		return int32((x >> 33) % uint64(mod))
	}
	for len(edges) < e {
		a, b := next(n), next(n)
		if a == b {
			continue
		}
		edges = append(edges, pair{a, b})
	}
	deg := make([]int32, n)
	for _, p := range edges {
		deg[p.a]++
		deg[p.b]++
	}
	t := &Topology{N: n, Offsets: make([]int32, n+1), Targets: make([]int32, 2*e)}
	for i := 0; i < n; i++ {
		t.Offsets[i+1] = t.Offsets[i] + deg[i]
	}
	fill := make([]int32, n)
	copy(fill, t.Offsets[:n])
	for _, p := range edges {
		t.Targets[fill[p.a]] = p.b
		fill[p.a]++
		t.Targets[fill[p.b]] = p.a
		fill[p.b]++
	}
	return t, nil
}

// Degree returns the degree of vertex v.
func (t *Topology) Degree(v int) int { return int(t.Offsets[v+1] - t.Offsets[v]) }

// CrossEdges counts edges whose endpoints land on different nodes under a
// contiguous static partition into p ranges.
func (t *Topology) CrossEdges(p int) int {
	owner := func(v int32) int {
		per := (t.N + p - 1) / p
		return int(v) / per
	}
	cross := 0
	for v := 0; v < t.N; v++ {
		for k := t.Offsets[v]; k < t.Offsets[v+1]; k++ {
			w := t.Targets[k]
			if int32(v) < w && owner(int32(v)) != owner(w) {
				cross++
			}
		}
	}
	return cross
}
