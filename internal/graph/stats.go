package graph

// This file provides the structural queries the exact solvers and the
// tests use: connected components, their sizes, and regularity.

// Components returns a component id for every vertex (ids are dense,
// 0..k-1 in order of first discovery) and the number of components.
func (g *Graph) Components() (id []int32, count int) {
	id = make([]int32, g.N())
	for i := range id {
		id[i] = -1
	}
	queue := make([]int32, 0, g.N())
	for s := int32(0); int(s) < g.N(); s++ {
		if id[s] >= 0 {
			continue
		}
		cid := int32(count)
		count++
		id[s] = cid
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, e := range g.Neighbors(u) {
				if id[e.To] < 0 {
					id[e.To] = cid
					queue = append(queue, e.To)
				}
			}
		}
	}
	return id, count
}

// ComponentSizes returns the vertex count of each connected component.
func (g *Graph) ComponentSizes() []int {
	id, count := g.Components()
	sizes := make([]int, count)
	for _, c := range id {
		sizes[c]++
	}
	return sizes
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for v := int32(0); int(v) < g.N(); v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}
