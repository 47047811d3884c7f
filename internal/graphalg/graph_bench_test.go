package graphalg

import (
	"math"
	"testing"
)

func benchGrid(w, h int) *Graph {
	g := NewGraph(w * h)
	at := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(at(x, y), at(x+1, y))
			}
			if y+1 < h {
				g.AddEdge(at(x, y), at(x, y+1))
			}
		}
	}
	return g
}

func BenchmarkBFSGrid16(b *testing.B) {
	g := benchGrid(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BFSFrom(0, nil)
	}
}

func BenchmarkShortestPathGrid16(b *testing.B) {
	g := benchGrid(16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := g.ShortestPath(0, g.NumNodes()-1, nil); !ok {
			b.Fatal("no path")
		}
	}
}

func BenchmarkDijkstraGrid16(b *testing.B) {
	g := benchGrid(16, 16)
	w := make([]float64, g.NumEdges())
	for e := range w {
		w[e] = float64(e%5) + 1
	}
	var s PathScratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := g.BoundedPathScratch(&s, 0, g.NumNodes()-1, w, 0, math.Inf(1)); !ok {
			b.Fatal("no path")
		}
	}
}

func BenchmarkMinCutGrid12(b *testing.B) {
	g := benchGrid(12, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, size := MinEdgeCut(g, 0, g.NumNodes()-1, nil); size == 0 {
			b.Fatal("unexpected zero cut")
		}
	}
}
