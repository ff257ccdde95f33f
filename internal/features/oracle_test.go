package features

import (
	"math"

	"perspectron/internal/encoding"
	"perspectron/internal/stats"
)

// The historical per-kernel selection implementation, kept verbatim as the
// reference the selection-context property tests compare against and as the
// serial baseline arm of BenchmarkSelect. Each kernel makes its own pass
// over the matrix: its own moments, its own column packing, and a per-pair
// dense Pearson over the row-major matrix.

// ComputeMoments returns the column-wise moments of X.
func ComputeMoments(X [][]float64) colMoments {
	n := len(X)
	if n == 0 {
		return colMoments{}
	}
	f := len(X[0])
	mean := make([]float64, f)
	for _, row := range X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	std := make([]float64, f)
	for _, row := range X {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(n))
	}
	return colMoments{Mean: mean, Std: std}
}

// Pearson computes the correlation between columns a and b of X given
// precomputed moments. Zero-variance columns correlate as 0.
func Pearson(X [][]float64, m colMoments, a, b int) float64 {
	if m.Std[a] == 0 || m.Std[b] == 0 {
		return 0
	}
	var s float64
	for _, row := range X {
		s += (row[a] - m.Mean[a]) * (row[b] - m.Mean[b])
	}
	return s / (float64(len(X)) * m.Std[a] * m.Std[b])
}

// legacyClassCorrelation is the historical dense implementation: its own
// moments pass plus a per-feature row loop.
func legacyClassCorrelation(X [][]float64, y []float64) []float64 {
	m := ComputeMoments(X)
	n := len(X)
	var ym, ys float64
	for _, v := range y {
		ym += v
	}
	ym /= float64(n)
	for _, v := range y {
		ys += (v - ym) * (v - ym)
	}
	ys = math.Sqrt(ys / float64(n))
	out := make([]float64, len(m.Mean))
	if ys == 0 {
		return out
	}
	parallelDo(len(out), func(j int) {
		if m.Std[j] == 0 {
			return
		}
		var s float64
		for i, row := range X {
			s += (row[j] - m.Mean[j]) * (y[i] - ym)
		}
		out[j] = s / (float64(n) * m.Std[j] * ys)
	})
	return out
}

// legacyMutualInformation is the per-kernel mutual-information
// implementation: it re-packs every column itself (one PackColumn per
// feature) instead of reading a shared packedMatrix.
func legacyMutualInformation(X [][]float64, y []float64) []float64 {
	n := len(X)
	if n == 0 {
		return nil
	}
	f := len(X[0])
	out := make([]float64, f)
	ypos := encoding.NewBitVec(n) // bit i set iff y[i] > 0
	for i, v := range y {
		if v > 0 {
			ypos.Set(i)
		}
	}
	nPosInt := ypos.Ones()
	pY1 := float64(nPosInt) / float64(n)
	parallelDo(f, func(j int) {
		col := encoding.PackColumn(X, j, encoding.BinarizeThreshold)
		out[j] = miFromCounts(n, col.Ones(), col.AndCount(ypos), nPosInt, pY1)
	})
	return out
}

// legacyCorrelationGroups is the historical dense implementation: a
// per-kernel moments pass and a per-pair Pearson sweep over the row-major
// matrix, sharded per row (row ai carries len(active)-ai pairs).
func legacyCorrelationGroups(X [][]float64, y []float64, threshold float64) []Group {
	m := ComputeMoments(X)
	f := len(m.Mean)
	active := make([]int, 0, f)
	for j := 0; j < f; j++ {
		if m.Std[j] > 0 {
			active = append(active, j)
		}
	}

	// Sweep all pairs in parallel, collecting over-threshold edges into
	// per-row slots (disjoint per work item); unions are applied serially
	// afterwards. Single-linkage components are order-independent, so the
	// partition matches the historical serial union order exactly.
	edges := make([][]int, len(active)) // edges[ai] = indices bi > ai linked to ai
	parallelDo(len(active), func(ai int) {
		var row []int
		a := active[ai]
		for bi := ai + 1; bi < len(active); bi++ {
			if math.Abs(Pearson(X, m, a, active[bi])) >= threshold {
				row = append(row, bi)
			}
		}
		edges[ai] = row
	})

	uf := newUnionFind(f)
	for ai, row := range edges {
		for _, bi := range row {
			uf.union(active[ai], active[bi])
		}
	}
	return assembleGroups(active, uf, legacyClassCorrelation(X, y))
}

// legacySelect is Select over the historical kernels: the same selection
// policy (pick) fed by per-kernel mutual information and correlation
// groups instead of one shared selection context.
func legacySelect(X [][]float64, y []float64, comps []stats.Component, cfg SelectConfig) Selection {
	mi := legacyMutualInformation(X, y)
	groups := legacyCorrelationGroups(X, y, cfg.GroupThreshold)
	return Selection{Indices: pick(mi, groups, comps, cfg), Groups: groups, MI: mi}
}
