// The column-major bit-packed matrix the selection context is built on.
//
// The historical kernels each re-packed the matrix themselves — one
// PackColumn per feature per kernel, each walking the row-major matrix with
// a stride-f access pattern. packMatrixInto does the whole conversion in one
// word-tiled pass: 64 rows at a time, scattering bits into an f-word
// accumulator that stays cache-resident, then flushing one word per column.
// Every downstream kernel (mutual information, class correlation, the
// correlation-group pair sweep) reads the same packed columns and one-counts.

package features

import (
	"math"

	"perspectron/internal/encoding"
)

// packedMatrix is a column-major bit-packed view of a sample matrix: column
// j of the input becomes the BitVec Cols[j] (bit i set iff X[i][j] >= the
// packing threshold), with its popcount cached in Ones[j]. All columns
// share one flat word allocation.
type packedMatrix struct {
	// N is the number of samples (rows) packed into each column.
	N int
	// Cols holds one packed column per feature.
	Cols []encoding.BitVec
	// Ones caches Cols[j].Ones().
	Ones []int
}

// packMatrixInto packs every column of X at threshold thr into pm in one
// word-tiled pass — bit-for-bit equal to calling encoding.PackColumn per
// column. pm.N and len(pm.Cols), len(pm.Ones) give the matrix shape; words
// must hold f*ceil(n/64) zeroed words; buf must hold f words (content
// ignored).
func packMatrixInto(X [][]float64, thr float64, words, buf []uint64, pm *packedMatrix) {
	n := pm.N
	wpc := (n + 63) / 64
	for j := range pm.Cols {
		pm.Cols[j] = encoding.BitVec(words[j*wpc : (j+1)*wpc])
	}
	for w := 0; w < wpc; w++ {
		clear(buf)
		base := w * 64
		end := base + 64
		if end > n {
			end = n
		}
		for i := base; i < end; i++ {
			bit := uint64(1) << uint(i-base)
			for j, v := range X[i] {
				if v >= thr {
					buf[j] |= bit
				}
			}
		}
		for j, bw := range buf {
			if bw != 0 {
				words[j*wpc+w] = bw
			}
		}
	}
	for j := range pm.Cols {
		pm.Ones[j] = pm.Cols[j].Ones()
	}
}

// mutualInformation returns, per packed column, the mutual information (in
// bits) between the column's bits and the class. For a matrix packed at
// encoding.BinarizeThreshold this is bit-identical to the historical dense
// row loop on the original matrix: the popcounts produce the same
// contingency integers and miFromCounts is the same arithmetic.
func (pm *packedMatrix) mutualInformation(y []float64) []float64 {
	n := pm.N
	if n == 0 {
		return nil
	}
	out := make([]float64, len(pm.Cols))
	ypos := encoding.NewBitVec(n) // bit i set iff y[i] > 0
	for i, v := range y {
		if v > 0 {
			ypos.Set(i)
		}
	}
	nPos := ypos.Ones()
	pY1 := float64(nPos) / float64(n)
	parallelDo(len(out), func(j int) {
		out[j] = miFromCounts(n, pm.Ones[j], pm.Cols[j].AndCount(ypos), nPos, pY1)
	})
	return out
}

// classCorrelation returns, per packed column, the Pearson correlation of
// the column's 0/1 values with the ±1 labels, via the exact integer
// identity binaryClassCorr. It requires the matrix to have been exactly
// 0/1 at packing time and the labels to be exactly ±1 — the conditions the
// selection context verifies once before routing here.
func (pm *packedMatrix) classCorrelation(y []float64) []float64 {
	n := pm.N
	out := make([]float64, len(pm.Cols))
	if n == 0 {
		return out
	}
	// Mirror the dense kernel's degenerate-label guard: single-class label
	// vectors have zero variance and correlate as 0 everywhere.
	var ym, ys float64
	for _, v := range y {
		ym += v
	}
	ym /= float64(n)
	for _, v := range y {
		ys += (v - ym) * (v - ym)
	}
	if math.Sqrt(ys/float64(n)) == 0 {
		return out
	}
	ypos := encoding.PackThreshold(y, 0) // bit i set iff y[i] = +1
	nPos := ypos.Ones()
	sy := nPos - (n - nPos)
	parallelDo(len(out), func(j int) {
		ca := pm.Ones[j]
		c11 := pm.Cols[j].AndCount(ypos)
		// Σ x·y over ±1 labels: ones on the +1 side minus ones on the -1
		// side.
		sxy := c11 - (ca - c11)
		out[j] = binaryClassCorr(n, ca, sxy, sy)
	})
	return out
}

// activeColumns returns the indices of columns with non-zero variance —
// for 0/1 data, exactly those with 0 < ones < n (equivalent to the dense
// Std > 0 test). dst is reused when large enough.
func (pm *packedMatrix) activeColumns(dst []int) []int {
	dst = dst[:0]
	for j, c := range pm.Ones {
		if c > 0 && c < pm.N {
			dst = append(dst, j)
		}
	}
	return dst
}

// packedBlock is the number of columns per pair-sweep work item. A block
// pair touches 2*packedBlock packed columns (a few KB each at realistic
// sample counts), so both blocks stay cache-resident while their
// packedBlock² co-occurrence popcounts run.
const packedBlock = 64

// packedEdges sweeps all active-column pairs for |Pearson| >= threshold
// using popcount co-occurrence over the shared packed columns. Work items
// are column-block pairs — near-uniform B² (half on the diagonal) instead
// of the historical per-row items whose cost decayed from f-1 pairs to 1 —
// and each item writes edges (ka, kb index pairs into active, ka < kb) to
// its own slot. slots is reused when non-nil.
func packedEdges(pm *packedMatrix, active []int, threshold float64, slots [][]int32) [][]int32 {
	nb := (len(active) + packedBlock - 1) / packedBlock
	items := nb * (nb + 1) / 2
	if cap(slots) < items {
		slots = make([][]int32, items)
	}
	slots = slots[:items]
	n := pm.N
	parallelDo(items, func(it int) {
		bi, bj := unrankBlockPair(it, nb)
		row := slots[it][:0]
		aLo, aHi := blockRange(bi, len(active))
		bLo, bHi := blockRange(bj, len(active))
		for ka := aLo; ka < aHi; ka++ {
			a := active[ka]
			colA, onesA := pm.Cols[a], pm.Ones[a]
			lo := bLo
			if lo <= ka {
				lo = ka + 1
			}
			for kb := lo; kb < bHi; kb++ {
				b := active[kb]
				r := binaryPearson(n, onesA, pm.Ones[b], colA.AndCount(pm.Cols[b]))
				if math.Abs(r) >= threshold {
					row = append(row, int32(ka), int32(kb))
				}
			}
		}
		slots[it] = row
	})
	return slots
}

// blockRange returns the active-index range [lo, hi) of block b.
func blockRange(b, nActive int) (lo, hi int) {
	lo = b * packedBlock
	hi = lo + packedBlock
	if hi > nActive {
		hi = nActive
	}
	return lo, hi
}

// unrankBlockPair maps a flat work-item index to the block pair (i, j with
// i <= j) in row-major upper-triangular order.
func unrankBlockPair(it, nb int) (int, int) {
	// Row i starts at offset i*nb - i*(i-1)/2.
	i := 0
	for {
		rowLen := nb - i
		if it < rowLen {
			return i, i + it
		}
		it -= rowLen
		i++
	}
}

// applyEdges merges every swept edge into the union-find, serially and in
// work-item order. Single-linkage partitions are union-order independent,
// so the result matches the historical ascending per-pair order.
func applyEdges(uf *unionFind, active []int, slots [][]int32) {
	for _, row := range slots {
		for k := 0; k < len(row); k += 2 {
			uf.union(active[row[k]], active[row[k+1]])
		}
	}
}
