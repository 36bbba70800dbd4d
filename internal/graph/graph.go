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

import (
	"fmt"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// Topology is a symmetric graph in CSR form, in plain Go memory: it is
// built before the machine runs and then loaded into simulated aggregates
// with Load.
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

// Mesh is the simulated-memory representation: vertex values plus the CSR
// topology as read-only coherent aggregates.
type Mesh struct {
	T       *Topology
	Val     *cstar.VectorF32
	Offsets *cstar.VectorI32
	Targets *cstar.VectorI32
}

// NewMesh allocates the simulated aggregates for t.  Values get the given
// policy (loose under LCM, coherent under Copying); the topology is always
// coherent since it is read-only during relaxation.
func NewMesh(m *tempest.Machine, name string, t *Topology, valPol core.Policy) *Mesh {
	g := &Mesh{T: t}
	g.Val = cstar.NewVectorF32(m, name+".val", t.N, valPol, memsys.Blocked)
	g.Offsets = cstar.NewVectorI32(m, name+".off", t.N+1, core.Coherent(), memsys.Interleaved)
	g.Targets = cstar.NewVectorI32(m, name+".tgt", len(t.Targets), core.Coherent(), memsys.Interleaved)
	return g
}

// Load writes the topology into the home image (sequential, pre-run).
func (g *Mesh) Load() {
	for i, o := range g.T.Offsets {
		g.Offsets.Poke(i, o)
	}
	for i, w := range g.T.Targets {
		g.Targets.Poke(i, w)
	}
}

// NeighborAvg returns the average value of v's neighbours, read through
// node n from src.
func (g *Mesh) NeighborAvg(n *tempest.Node, src *cstar.VectorF32, v int) float32 {
	lo := g.Offsets.Get(n, v)
	hi := g.Offsets.Get(n, v+1)
	if lo == hi {
		return src.Get(n, v)
	}
	var sum float32
	for k := lo; k < hi; k++ {
		w := g.Targets.Get(n, int(k))
		sum += src.Get(n, int(w))
	}
	return sum / float32(hi-lo)
}
