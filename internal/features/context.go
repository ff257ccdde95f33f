// The shared selection context.
//
// Profiling Select on the quick corpus (330×786 scaled matrix) showed the
// pair sweep's per-pair dense Pearson at >90% of wall time, with the
// remainder spent re-deriving shared state per kernel: the historical
// mutual-information, class-correlation and correlation-group kernels each
// re-scanned the full O(n·f) matrix (binary detection, moments) and
// re-packed every column. selCtx computes each shared pass exactly once per
// Select call:
//
//   - one binary/±1-label classification scan;
//   - one word-tiled packing (at encoding.BinarizeThreshold — for
//     exactly-0/1 input that packing is bit-equal to the historical thr=1
//     packing, so a single packedMatrix feeds all three kernels);
//   - one moments pass, one centered column-major transpose and one
//     suffix-norm pass (dense input only, and only for the pair sweep).
//
// The dense pair sweep is the big win: instead of len(active)² strided
// walks over the row-major matrix, it runs dot products over contiguous
// centered columns, blocked into near-uniform column-pair work items, and
// prunes each pair at tile boundaries with a Cauchy–Schwarz suffix-norm
// bound — |Σ_tail a·b| ≤ ‖a_tail‖·‖b_tail‖ — that proves most pairs can
// never reach the 0.98 grouping threshold after the first 32 rows. The
// bound is applied with a slack factor far above float rounding, so a pair
// is pruned only when its full correlation is provably below threshold;
// every surviving pair computes the complete ascending-index sum and takes
// the decision through arithmetic identical to the per-pair reference
// Pearson, keeping the partition bit-identical to it.
//
// All large intermediates (packed words, centered columns, suffix norms,
// edge slots) come from a reusable scratch bundle, so repeated Select
// calls stop churning ~200KB of per-kernel allocations.

package features

import (
	"math"
	"sync/atomic"

	"perspectron/internal/encoding"
)

// selScratch is the reusable buffer bundle behind a selection context.
// One bundle is parked in scratchFree between calls; concurrent selections
// simply allocate a fresh bundle on miss.
type selScratch struct {
	words    []uint64          // flat packed-column backing
	packBuf  []uint64          // per-word-tile accumulator (f words)
	cols     []encoding.BitVec // packed column headers
	ones     []int             // packed column popcounts
	mean     []float64         // moments
	std      []float64         // moments
	active   []int             // non-zero-variance column indices
	centBack []float64         // flat centered-column backing (active only)
	centCols [][]float64       // centered column headers
	suf      []float64         // flat suffix-norm backing (active only)
	yc       []float64         // centered labels
	edges    [][]int32         // per-work-item edge slots
}

var scratchFree atomic.Pointer[selScratch]

func getScratch() *selScratch {
	if s := scratchFree.Swap(nil); s != nil {
		return s
	}
	return &selScratch{}
}

func growU64(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}

func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// colMoments holds per-feature mean and standard deviation over a sample
// set.
type colMoments struct {
	Mean, Std []float64
}

// selCtx is the per-call selection context: the classification of the
// input plus every shared intermediate, each computed at most once.
// Contexts are single-goroutine (internal kernels fan out, but the context
// itself is not shared) and must not be used after release.
type selCtx struct {
	X    [][]float64
	y    []float64
	n, f int

	binary bool // every entry exactly 0 or 1
	signY  bool // every label exactly ±1

	s  *selScratch
	pm packedMatrix // columns packed at encoding.BinarizeThreshold

	haveMoments bool
	m           colMoments

	haveActive bool
	active     []int

	haveCent bool
	centAct  [][]float64 // centered columns, one per active index
	suf      []float64   // suffix norms, (ntiles+1) per active index
	ntiles   int
}

// newSelCtx classifies X/y once and packs the matrix once. A matrix with no
// rows is treated as having no columns.
func newSelCtx(X [][]float64, y []float64) *selCtx {
	f := 0
	if len(X) > 0 {
		f = len(X[0])
	}
	sc := &selCtx{
		X: X, y: y,
		n: len(X), f: f,
		binary: isBinaryMatrix(X),
		signY:  isSignLabels(y),
		s:      getScratch(),
	}
	wpc := (sc.n + 63) / 64
	sc.s.words = growU64(sc.s.words, sc.f*wpc)
	clear(sc.s.words) // packMatrixInto skips zero words, so stale bits must go
	sc.s.packBuf = growU64(sc.s.packBuf, sc.f)
	if cap(sc.s.cols) < sc.f {
		sc.s.cols = make([]encoding.BitVec, sc.f)
	}
	sc.s.ones = growInt(sc.s.ones, sc.f)
	sc.pm = packedMatrix{N: sc.n, Cols: sc.s.cols[:sc.f], Ones: sc.s.ones}
	packMatrixInto(X, encoding.BinarizeThreshold, sc.s.words, sc.s.packBuf, &sc.pm)
	return sc
}

// release parks the scratch bundle for the next selection. The context —
// including its packedMatrix and centered columns — is dead afterwards.
func (sc *selCtx) release() {
	s := sc.s
	sc.s = nil
	scratchFree.Store(s)
}

// moments computes the column moments once, with arithmetic identical to
// the reference ComputeMoments in oracle_test.go.
func (sc *selCtx) moments() colMoments {
	if sc.haveMoments {
		return sc.m
	}
	mean := growF64(sc.s.mean, sc.f)
	std := growF64(sc.s.std, sc.f)
	clear(mean)
	clear(std)
	for _, row := range sc.X {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(sc.n)
	}
	for _, row := range sc.X {
		for j, v := range row {
			d := v - mean[j]
			std[j] += d * d
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(sc.n))
	}
	sc.s.mean, sc.s.std = mean, std
	sc.m = colMoments{Mean: mean, Std: std}
	sc.haveMoments = true
	return sc.m
}

// activeSet returns the non-zero-variance columns. For exactly-0/1 input
// the one-counts decide (0 < ones < n ⟺ Std > 0), skipping the moments
// pass entirely.
func (sc *selCtx) activeSet() []int {
	if sc.haveActive {
		return sc.active
	}
	if sc.binary {
		sc.active = sc.pm.activeColumns(sc.s.active)
	} else {
		m := sc.moments()
		act := sc.s.active[:0]
		for j := 0; j < sc.f; j++ {
			if m.Std[j] > 0 {
				act = append(act, j)
			}
		}
		sc.active = act
	}
	sc.s.active = sc.active
	sc.haveActive = true
	return sc.active
}

// denseTile is the row granularity of the suffix-norm prune checks: a pair
// that cannot reach the grouping threshold is abandoned after its first
// denseTile rows.
const denseTile = 32

// densePruneGuard shrinks the prune limit so that float rounding in the
// partial sum and the suffix norms can never prune a pair whose exact
// correlation reaches the threshold: the bound must undershoot by a
// relative 1e-7 — many orders above the ~n·ε accumulation error, many
// below any correlation gap that occurs in practice — before a pair is
// dropped. Pairs inside that sliver simply run to completion and take the
// exact decision.
const densePruneGuard = 1 - 1e-7

// buildCentered materializes, once, the contiguous centered columns and
// tile-boundary suffix norms the dense pair sweep runs on.
func (sc *selCtx) buildCentered() {
	if sc.haveCent {
		return
	}
	m := sc.moments()
	act := sc.activeSet()
	n, nAct := sc.n, len(act)
	sc.s.centBack = growF64(sc.s.centBack, nAct*n)
	if cap(sc.s.centCols) < nAct {
		sc.s.centCols = make([][]float64, nAct)
	}
	cent := sc.s.centCols[:nAct]
	for k := range cent {
		cent[k] = sc.s.centBack[k*n : (k+1)*n]
	}
	// Row-tiled transpose: each 64-row band of the row-major matrix is
	// centered into all active columns while its cache lines are hot.
	for base := 0; base < n; base += 64 {
		end := base + 64
		if end > n {
			end = n
		}
		rows := sc.X[base:end]
		for k, j := range act {
			col := cent[k]
			mj := m.Mean[j]
			for i, row := range rows {
				col[base+i] = row[j] - mj
			}
		}
	}

	sc.ntiles = (n + denseTile - 1) / denseTile
	stride := sc.ntiles + 1
	sc.s.suf = growF64(sc.s.suf, nAct*stride)
	parallelDo(nAct, func(k int) {
		col := cent[k]
		row := sc.s.suf[k*stride : (k+1)*stride]
		row[sc.ntiles] = 0
		acc := 0.0
		for t := sc.ntiles - 1; t >= 0; t-- {
			end := (t + 1) * denseTile
			if end > n {
				end = n
			}
			for i := t * denseTile; i < end; i++ {
				acc += col[i] * col[i]
			}
			row[t] = math.Sqrt(acc)
		}
	})
	sc.centAct = cent
	sc.haveCent = true
}

// denseBlock is the number of columns per dense pair-sweep work item.
const denseBlock = 64

// denseEdges sweeps all active-column pairs for |Pearson| >= threshold over
// the centered columns. Work items are column-block pairs (near-uniform
// cost, cache-resident tiles); each pair accumulates the ascending-index
// product sum — the exact float sequence the reference per-pair Pearson
// produced — and bails at the first tile boundary where the suffix-norm
// bound proves the threshold unreachable. Surviving pairs divide by the
// identically-associated denominator (n·σa)·σb, so their edge decision is
// bit-identical to the reference.
func (sc *selCtx) denseEdges(threshold float64) [][]int32 {
	sc.buildCentered()
	act := sc.active
	cent := sc.centAct
	std := sc.moments().Std
	n, ntiles := sc.n, sc.ntiles
	stride := ntiles + 1
	suf := sc.s.suf
	nF := float64(n)
	guard := threshold * densePruneGuard

	nb := (len(act) + denseBlock - 1) / denseBlock
	items := nb * (nb + 1) / 2
	if cap(sc.s.edges) < items {
		sc.s.edges = make([][]int32, items)
	}
	slots := sc.s.edges[:items]
	parallelDo(items, func(it int) {
		bi, bj := unrankBlockPair(it, nb)
		row := slots[it][:0]
		aLo := bi * denseBlock
		aHi := aLo + denseBlock
		if aHi > len(act) {
			aHi = len(act)
		}
		bLo := bj * denseBlock
		bHi := bLo + denseBlock
		if bHi > len(act) {
			bHi = len(act)
		}
		for ka := aLo; ka < aHi; ka++ {
			ca := cent[ka]
			sa := suf[ka*stride : (ka+1)*stride]
			qa := nF * std[act[ka]]
			lo := bLo
			if lo <= ka {
				lo = ka + 1
			}
			for kb := lo; kb < bHi; kb++ {
				cb := cent[kb]
				denom := qa * std[act[kb]]
				lim := guard * denom
				sb := suf[kb*stride : (kb+1)*stride]
				s := 0.0
				i := 0
				full := true
				for t := 1; ; t++ {
					end := t * denseTile
					if end >= n {
						for ; i < n; i++ {
							s += ca[i] * cb[i]
						}
						break
					}
					for ; i < end; i++ {
						s += ca[i] * cb[i]
					}
					as := s
					if as < 0 {
						as = -as
					}
					if as+sa[t]*sb[t] < lim {
						full = false
						break
					}
				}
				if full {
					r := s / denom
					if math.Abs(r) >= threshold {
						row = append(row, int32(ka), int32(kb))
					}
				}
			}
		}
		slots[it] = row
	})
	sc.s.edges = slots
	return slots
}

// mutualInformation returns, per feature, the mutual information (in bits)
// between the feature binarized at encoding.BinarizeThreshold and the
// class, off the shared packed columns — bit-identical to the historical
// dense row loop because the popcounts feed the same contingency integers
// into the same arithmetic (miFromCounts).
func (sc *selCtx) mutualInformation() []float64 {
	return sc.pm.mutualInformation(sc.y)
}

// classCorrelation returns, per feature, the Pearson correlation with the
// class labels (0 for zero-variance features or labels). It routes to the
// exact popcount kernel when the input qualifies — mathematically equal to
// the dense form, differing only in the rounding of intermediates — and
// otherwise runs the dense kernel over the centered columns (identical
// floats in identical order to the historical row loop).
func (sc *selCtx) classCorrelation() []float64 {
	if sc.binary && sc.signY {
		return sc.pm.classCorrelation(sc.y)
	}
	m := sc.moments()
	n := sc.n
	var ym, ys float64
	for _, v := range sc.y {
		ym += v
	}
	ym /= float64(n)
	for _, v := range sc.y {
		ys += (v - ym) * (v - ym)
	}
	ys = math.Sqrt(ys / float64(n))
	out := make([]float64, sc.f)
	if ys == 0 {
		return out
	}
	sc.buildCentered()
	yc := growF64(sc.s.yc, n)
	for i, v := range sc.y {
		yc[i] = v - ym
	}
	sc.s.yc = yc
	act := sc.active
	cent := sc.centAct
	parallelDo(len(act), func(k int) {
		j := act[k]
		col := cent[k]
		var s float64
		for i, c := range col {
			s += c * yc[i]
		}
		out[j] = s / (float64(n) * m.Std[j] * ys)
	})
	return out
}

// correlationGroups clusters the features whose pairwise |Pearson| reaches
// threshold, running the pair sweep appropriate to the input class, and
// assembles the single-linkage partition (see assembleGroups for the
// order).
func (sc *selCtx) correlationGroups(threshold float64) []Group {
	act := sc.activeSet()
	var edges [][]int32
	if sc.binary {
		edges = packedEdges(&sc.pm, act, threshold, sc.s.edges)
		sc.s.edges = edges
	} else {
		edges = sc.denseEdges(threshold)
	}
	uf := newUnionFind(sc.f)
	applyEdges(uf, act, edges)
	return assembleGroups(act, uf, sc.classCorrelation())
}
