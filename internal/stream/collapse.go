package stream

import (
	"cmp"
	"fmt"
	"slices"
)

// RankEdges returns the edge ids by descending score, edge id ascending on
// ties (NaN scores rank last). Every ranked collapse walks this one total
// order: the deployment sweep, the multilevel levels and their boundary
// refinement, the re-allocation regions and the Metis-guided forests.
func RankEdges(score []float64) []int32 {
	order := make([]int32, len(score))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(score[b], score[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Collapser walks a graph's edges one collapse at a time (§IV): each
// collapsed edge merges its endpoints' super-nodes. It is a union-find by
// rank with path halving over the graph's nodes, so a walk over every edge
// costs O(E·α(N)).
type Collapser struct {
	edges    []Edge
	parent   []int32
	rank     []uint8
	decision []bool
	numSuper int
}

// NewCollapser starts a walk on g with every node its own super-node.
func NewCollapser(g *Graph) *Collapser {
	c := &Collapser{
		edges:    g.Edges,
		parent:   make([]int32, len(g.Nodes)),
		rank:     make([]uint8, len(g.Nodes)),
		decision: make([]bool, len(g.Edges)),
		numSuper: len(g.Nodes),
	}
	for v := range c.parent {
		c.parent[v] = int32(v)
	}
	return c
}

func (c *Collapser) find(v int32) int32 {
	for c.parent[v] != v {
		c.parent[v] = c.parent[c.parent[v]]
		v = c.parent[v]
	}
	return v
}

// Collapse merges the super-nodes of edge ei's endpoints and reports
// whether they were distinct. An edge inside one super-node changes
// nothing and stays undecided.
func (c *Collapser) Collapse(ei int) bool {
	e := c.edges[ei]
	a, b := c.find(int32(e.Src)), c.find(int32(e.Dst))
	if a == b {
		return false
	}
	if c.rank[a] < c.rank[b] {
		a, b = b, a
	}
	c.parent[b] = a
	if c.rank[a] == c.rank[b] {
		c.rank[a]++
	}
	c.decision[ei] = true
	c.numSuper--
	return true
}

// NumSuper returns the current number of super-nodes.
func (c *Collapser) NumSuper() int { return c.numSuper }

// Decision returns the walk's decision vector: edge ei is true when
// Collapse(ei) merged two super-nodes. It is the collapser's own slice, so
// later Collapse calls extend it.
func (c *Collapser) Decision() []bool { return c.decision }

// Map returns the coarse map of the current grouping. Super-nodes are
// numbered by their smallest member, so the map depends only on the
// grouping, not on the order the edges were collapsed in.
func (c *Collapser) Map() *CoarseMap {
	super := make([]int, len(c.parent))
	id := make([]int32, len(c.parent)) // root → super-node id + 1; 0 = not yet numbered
	next := 0
	for v := range super {
		r := c.find(int32(v))
		if id[r] == 0 {
			next++
			id[r] = int32(next)
		}
		super[v] = int(id[r]) - 1
	}
	return &CoarseMap{Super: super, NumSuper: next}
}

// Sweep walks order, collapsing each edge that keep accepts (nil
// accepts every edge), and calls at(i) the first time NumSuper() falls
// to targets[i] or below; at may read Map and Decision. targets must
// not increase. A target met before the first collapse is reported before
// it, targets met together are reported in order, and the walk stops
// once the last target is met, so the collapser then holds that
// target's grouping. An unreached target gets no call, and the walk
// then ends with every accepted edge of order collapsed.
func (c *Collapser) Sweep(order []int32, targets []int, keep func(ei int) bool, at func(i int)) {
	ti := 0
	reached := func() {
		for ; ti < len(targets) && c.numSuper <= targets[ti]; ti++ {
			at(ti)
		}
	}
	reached()
	for _, ei := range order {
		if ti == len(targets) {
			return
		}
		if (keep == nil || keep(int(ei))) && c.Collapse(int(ei)) {
			reached()
		}
	}
}

// CollapseEdges builds the coarse map induced by merging the endpoints of
// every edge whose index appears with decision true. Super-node ids are
// compacted and ordered by the smallest original node they contain.
func CollapseEdges(g *Graph, collapse []bool) *CoarseMap {
	if len(collapse) != len(g.Edges) {
		panic(fmt.Sprintf("stream: %d collapse decisions for %d edges", len(collapse), len(g.Edges)))
	}
	c := NewCollapser(g)
	for ei, d := range collapse {
		if d {
			c.Collapse(ei)
		}
	}
	return c.Map()
}
