package nn

import (
	"fmt"
	"math"
	"sort"

	"misusedetect/internal/tensor"
)

// Lockstep minibatch training. The examples of one Adam step advance
// together, one time step at a time, so every weight product of the
// step is a GEMM over many rows instead of one matrix-vector product
// per example and step:
//
//   - forward, per time step: one Wh·h product over the live examples'
//     rows, then StepBatch's gate math (stepRow) on each row, which keeps
//     the activations, c, tanh c and h of every (example, step) row;
//   - the output layer, once over every output row of the minibatch:
//     the logits, dX against the dense weights transposed, and the
//     dense weight gradient;
//   - backward, per time step: one dz·Wh product over the live rows;
//   - the recurrent weight gradient, once over every row.
//
// All five run on the one kernel, tensor.MatMulWS, whose lanes are over
// the rows of the packed operand: the 4H gates, the V outputs or the H
// hidden units, so a step's few live rows use whole vectors. The
// weights change only at Adam.Step, so each is packed once per
// minibatch, as is and transposed (PackT packs Wᵀ straight from W),
// into trainer-owned storage; a weight gradient packs its x operand per
// call. The gate and logit rows are laid out at the packed stride, as
// StepBatch's are. Where such a row is the K of the next product (dz
// into dz·Wh, dL into dX), its pad lanes are zeroed and the transposed
// weights are packed with zero columns to match, so the extra terms
// are +0·+0 = +0 at the end of each chain and change no bit.
//
// Every trained bit equals what the per-example scalar path (Step, the
// dense layer's matvecs and rank-1 updates, one example after another;
// trainbatch_test.go keeps it as the oracle) accumulates into gradients
// that Adam.Step has just zeroed. tensor.MatMulWS reduces each output
// element in one +0-seeded scalar over ascending k, which is the chain
// MulVecAdd, MulVecTAdd and AddOuter run, provided the K order is the
// serial one:
//
//   - dense W gradient: K over output rows by (example, t ascending);
//   - Wh gradient: K over rows by (example, t descending), as BPTT
//     visits them;
//   - dX and dz·Wh: K over the V outputs or the 4H gates, ascending.
//
// MulVecTAdd and AddOuter skip the products of zero entries; such a
// product is a signed zero, and adding one to a sum seeded with +0
// changes nothing (the sum can never be -0). The same absorption lets
// the Wh gradient drop each example's t = 0 rows, whose previous hidden
// state is the zero vector. The Wx column sums (gathered per input
// action, then folded into Wx.G) and the bias sums are replayed after
// the backward in the serial order, and the dropout masks are drawn up
// front in the serial order: example by example, step by step.

// example is one training example: the network reads in, one action per
// step from the zero state, and is trained to predict out[j] at step
// len(in)-len(out)+j. A sequence segment predicts every next action; a
// moving window predicts one action after its last input.
type example struct{ in, out []int }

// checkExample validates an example against the network's vocabulary:
// inputs may be padding (negative, a zero input), targets may not.
func (n *LanguageNetwork) checkExample(ex example) error {
	if len(ex.in) == 0 || len(ex.out) == 0 || len(ex.out) > len(ex.in) {
		return fmt.Errorf("nn: example of %d inputs and %d targets", len(ex.in), len(ex.out))
	}
	if err := n.validateSeq(ex.in); err != nil {
		return err
	}
	for _, y := range ex.out {
		if y < 0 || y >= n.cfg.InputSize {
			return fmt.Errorf("nn: target %d outside vocab %d", y, n.cfg.InputSize)
		}
	}
	return nil
}

// wgradChunk is the number of weight-gradient rows computed per GEMM,
// which bounds the transposed operand the chunk needs to wgradChunk × K.
const wgradChunk = 64

// trainScratch holds a Trainer's lockstep buffers. Rows are indexed
// step-major: row base[t]+i holds the example at sorted position i at
// step t, and sorting by descending length makes the live examples of
// every step a prefix, so each step's rows are contiguous and the h rows
// of step t-1 that step t reads are a prefix of that step's block.
type trainScratch struct {
	// wh, wd, whT and wdT are the recurrent and dense weights packed for
	// this minibatch, as is and transposed; xT is a weight gradient's x
	// operand, packed transposed.
	wh, wd, whT, wdT, xT tensor.PackedNT
	// order lists the minibatch's examples by descending length (stable);
	// pos is its inverse.
	order, pos []int
	// live[t] is the number of examples still running at step t, and
	// base[t] the first row of step t.
	live, base []int
	// gates holds each row's pre-activations, then its activations [i;
	// f; o; g], then its dz (R × 4H, at wh's stride, pad lanes zero).
	gates *tensor.Matrix
	// c, tc and h hold each row's cell state, tanh c and hidden state.
	c, tc, h *tensor.Matrix
	// outRow maps each output row, in the serial (example, t) order, to
	// its cache row; outAt[e] is example e's first output row.
	outRow, outAt []int
	// hd holds the output rows' dropped-out h (O × H), then their dX
	// (O × H at wdT's stride); mask holds their dropout masks.
	hd, mask *tensor.Matrix
	// logits holds the output rows' logits, then probabilities, then
	// dLogits (O × V, at wd's stride, pad lanes zero).
	logits *tensor.Matrix
	// dH and dC are the gradients flowing into each example's hidden and
	// cell state, by sorted position (dH at whT's stride).
	dH, dC *tensor.Matrix
	// ta is a chunk of a weight gradient's transposed dy operand, and
	// grad its product before it is added to the gradient.
	ta, grad *tensor.Matrix
	// kRows and kPrev list the rows of the Wh gradient's K order and the
	// rows holding their previous hidden state.
	kRows, kPrev []int
	// wxT accumulates Wx.G transposed (V × 4H), one row per input
	// action; wxCols lists the rows the minibatch touched, and wxSeen
	// marks them.
	wxT    *tensor.Matrix
	wxCols []int
	wxSeen []bool
	// zero is the zero cell state before an example's first step, e a
	// row's exp scratch.
	zero, e []float64
}

// rowView returns rows [lo, hi) of m as a matrix sharing its storage.
func rowView(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	return &tensor.Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// grow reshapes *m to rows × cols, reusing its storage.
func grow(m **tensor.Matrix, rows, cols int) *tensor.Matrix {
	*m = tensor.GrowMatrix(*m, rows, cols)
	return *m
}

// growInts returns s resized to n, reusing its storage.
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// trainBatch runs the forward and backward pass of one minibatch,
// accumulating the gradients of the parameters and adding each example's
// loss, weighted by its target count, to *lossSum in batch order. The
// examples must have passed checkExample.
func (t *Trainer) trainBatch(batch []example, lossSum *float64) {
	n := t.net
	s := &t.s
	hs, vocab := n.cfg.HiddenSize, n.cfg.InputSize
	l, d := n.lstm, n.dense

	// Sort by descending length and lay out the step-major rows.
	s.order = growInts(s.order, len(batch))
	for i := range s.order {
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool { return len(batch[s.order[a]].in) > len(batch[s.order[b]].in) })
	s.pos = growInts(s.pos, len(batch))
	for i, e := range s.order {
		s.pos[e] = i
	}
	steps := len(batch[s.order[0]].in)
	s.live = growInts(s.live, steps+1)
	s.base = growInts(s.base, steps+1)
	live, rows := len(batch), 0
	for tt := 0; tt < steps; tt++ {
		for len(batch[s.order[live-1]].in) <= tt {
			live--
		}
		s.live[tt], s.base[tt] = live, rows
		rows += live
	}
	s.live[steps], s.base[steps] = 0, rows

	// Pack the weights for this minibatch: Adam.Step writes them next.
	// The transposed ones take zero columns up to the stride of the
	// rows they multiply.
	s.wh.Pack(l.Wh.W)
	s.wd.Pack(d.W.W)
	s.whT.PackT(l.Wh.W, nil, s.wh.Stride())
	s.wdT.PackT(d.W.W, nil, s.wd.Stride())

	// Forward, one step at a time over the live rows.
	gates := grow(&s.gates, rows, s.wh.Stride())
	c, tc, h := grow(&s.c, rows, hs), grow(&s.tc, rows, hs), grow(&s.h, rows, hs)
	if len(s.zero) < hs {
		s.zero = make([]float64, hs)
		s.e = make([]float64, 4*hs)
	}
	zero, e := s.zero[:hs], s.e[:4*hs]
	for tt := 0; tt < steps; tt++ {
		lo, hi := s.base[tt], s.base[tt]+s.live[tt]
		z := rowView(gates, lo, hi)
		if tt == 0 {
			clear(z.Data) // Wh·h of the zero state
		} else {
			prev := s.base[tt-1]
			tensor.MatMulWS(z, rowView(h, prev, prev+s.live[tt]), &s.wh)
		}
		for i := 0; i < s.live[tt]; i++ {
			cPrev := zero
			if tt > 0 {
				cPrev = c.Row(s.base[tt-1] + i)
			}
			r := lo + i
			zr := gates.Row(r)
			clear(zr[4*hs:])
			l.stepRow(zr[:4*hs], e, batch[s.order[i]].in[tt], cPrev, c.Row(r), tc.Row(r), h.Row(r))
		}
	}

	// The output rows in serial order, their dropout, and their logits.
	s.outRow = s.outRow[:0]
	s.outAt = growInts(s.outAt, len(batch))
	for ei, ex := range batch {
		s.outAt[ei] = len(s.outRow)
		for tt := len(ex.in) - len(ex.out); tt < len(ex.in); tt++ {
			s.outRow = append(s.outRow, s.base[tt]+s.pos[ei])
		}
	}
	outs := len(s.outRow)
	hd := grow(&s.hd, outs, hs)
	rate := n.cfg.DropoutRate
	if rate > 0 {
		mask := grow(&s.mask, outs, hs)
		scale := 1 / (1 - rate)
		for o, r := range s.outRow {
			src, dst, m := h.Row(r), hd.Row(o), mask.Row(o)
			for k := range dst {
				if n.rng.Float64() < rate {
					m[k], dst[k] = 0, 0
				} else {
					m[k], dst[k] = scale, src[k]*scale
				}
			}
		}
	} else {
		for o, r := range s.outRow {
			copy(hd.Row(o), h.Row(r))
		}
	}
	logits := grow(&s.logits, outs, s.wd.Stride())
	tensor.MatMulWS(logits, hd, &s.wd)
	tensor.AddBiasRows(logits, tensor.Vector(d.B.W.Data))

	// Softmax cross-entropy per output row; each row becomes the
	// gradient of its example's mean loss.
	o := 0
	for _, ex := range batch {
		inv := 1 / float64(len(ex.out))
		var total float64
		for _, y := range ex.out {
			row := logits.Row(o)[:vocab]
			clear(logits.Row(o)[vocab:])
			tensor.Softmax(row, row)
			p := row[y]
			if p < 1e-300 {
				p = 1e-300
			}
			total += -math.Log(p)
			row[y] -= 1
			row.Scale(inv)
			o++
		}
		*lossSum += total * inv * float64(len(ex.out))
	}

	// Output layer gradients: dense W.G = Σ dL hdᵀ over output rows in
	// serial order, the bias in the same order, then dX = dL·W into hd's
	// storage, at wdT's stride.
	t.weightGrad(d.W.G, logits, nil, hd, nil)
	for o := 0; o < outs; o++ {
		for v, g := range logits.Row(o)[:vocab] {
			d.B.G.Data[v] += g
		}
	}
	dx := grow(&s.hd, outs, s.wdT.Stride())
	tensor.MatMulWS(dx, logits, &s.wdT)
	if rate > 0 {
		for o := 0; o < outs; o++ {
			row := dx.Row(o)
			for k, m := range s.mask.Row(o) {
				row[k] *= m
			}
		}
	}

	// Backward through time, one step at a time over the live rows.
	dH, dC := grow(&s.dH, len(batch), s.whT.Stride()), grow(&s.dC, len(batch), hs)
	for tt := steps - 1; tt >= 0; tt-- {
		for i := s.live[tt+1]; i < s.live[tt]; i++ { // examples whose last step is tt
			clear(dH.Row(i))
			clear(dC.Row(i))
		}
		lo := s.base[tt]
		for i := 0; i < s.live[tt]; i++ {
			ei := s.order[i]
			ex := batch[ei]
			dh := dH.Row(i)[:hs]
			if first := len(ex.in) - len(ex.out); tt >= first {
				for k, g := range dx.Row(s.outAt[ei] + tt - first)[:hs] {
					dh[k] += g
				}
			}
			cPrev := zero
			if tt > 0 {
				cPrev = c.Row(s.base[tt-1] + i)
			}
			r := lo + i
			gateBackward(gates.Row(r)[:4*hs], dh, dC.Row(i), cPrev, tc.Row(r))
		}
		if tt > 0 {
			tensor.MatMulWS(rowView(dH, 0, s.live[tt]), rowView(gates, lo, lo+s.live[tt]), &s.whT)
		}
	}

	// Recurrent gradients in the serial BPTT order: example by example,
	// t descending. The t = 0 rows leave Wh.G alone (their h is zero).
	// Wx.G's column x gathers in row x of wxT, so each row's dz adds
	// contiguously, and is folded into the zeroed Wx.G once: each element
	// sees the serial adds in the serial order from +0, and adding that
	// sum to +0 changes no bit.
	wxT := grow(&s.wxT, vocab, 4*hs)
	if len(s.wxSeen) != vocab {
		s.wxSeen = make([]bool, vocab)
	}
	s.kRows, s.kPrev = s.kRows[:0], s.kPrev[:0]
	for ei, ex := range batch {
		pi := s.pos[ei]
		for tt := len(ex.in) - 1; tt >= 0; tt-- {
			r := s.base[tt] + pi
			dz := gates.Row(r)[:4*hs]
			if x := ex.in[tt]; x >= 0 {
				col := wxT.Row(x)
				if !s.wxSeen[x] {
					s.wxSeen[x] = true
					s.wxCols = append(s.wxCols, x)
					clear(col)
				}
				for q, g := range dz {
					col[q] += g
				}
			}
			for q, g := range dz {
				l.B.G.Data[q] += g
			}
			if tt > 0 {
				s.kRows = append(s.kRows, r)
				s.kPrev = append(s.kPrev, s.base[tt-1]+pi)
			}
		}
	}
	for _, x := range s.wxCols {
		for q, g := range wxT.Row(x) {
			l.Wx.G.Data[q*l.InputSize+x] += g
		}
		s.wxSeen[x] = false
	}
	s.wxCols = s.wxCols[:0]
	if len(s.kRows) > 0 {
		t.weightGrad(l.Wh.G, gates, s.kRows, h, s.kPrev)
	}
}

// gateBackward turns one row's activations [i; f; o; g] into its dz,
// given dh, the gradient into the row's hidden state, and dc, the
// gradient flowing into its cell state from the step after; dc is
// replaced by the gradient into the previous cell state. cPrev and tc
// are the row's previous cell state and tanh c.
func gateBackward(a, dh, dc, cPrev, tc []float64) {
	hs := len(dh)
	for k := 0; k < hs; k++ {
		i, f, o, g := a[k], a[hs+k], a[2*hs+k], a[3*hs+k]
		do := dh[k] * tc[k]
		dck := dc[k] + dh[k]*o*(1-tc[k]*tc[k])
		di := dck * g
		df := dck * cPrev[k]
		dg := dck * i
		dc[k] = dck * f

		a[k] = di * i * (1 - i)
		a[hs+k] = df * f * (1 - f)
		a[2*hs+k] = do * o * (1 - o)
		a[3*hs+k] = dg * (1 - g*g)
	}
}

// weightGrad adds Σ_k dy[ky[k]] x[kx[k]]ᵀ to the gradient g, one
// wgradChunk of g's rows per GEMM, g's columns (x's) in the lanes. nil
// index lists take every row of dy or x in order; the lists fix the K
// order of every element's sum. Only dy's first g.Rows columns are read.
func (t *Trainer) weightGrad(g *tensor.Matrix, dy *tensor.Matrix, ky []int, x *tensor.Matrix, kx []int) {
	s := &t.s
	k := dy.Rows
	if ky != nil {
		k = len(ky)
	}
	s.xT.PackT(x, kx, k)
	for r0 := 0; r0 < g.Rows; r0 += wgradChunk {
		m := min(wgradChunk, g.Rows-r0)
		dyT := grow(&s.ta, m, k)
		tensor.TransposeRows(dyT, dy, ky, r0)
		prod := grow(&s.grad, m, s.xT.Stride())
		tensor.MatMulWS(prod, dyT, &s.xT)
		for i := 0; i < m; i++ {
			for j, v := range prod.Row(i)[:g.Cols] {
				g.Data[(r0+i)*g.Cols+j] += v
			}
		}
	}
}
