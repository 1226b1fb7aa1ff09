package actionlog

import "fmt"

// PaddingIndex marks a zero-padded position in a window input: the one-hot
// encoder emits an all-zero vector for it, matching the paper's
// "first element of batch is filled with zeros" construction.
const PaddingIndex = -1

// Window is one training example for the language models: a fixed-length
// context of action indices (left-padded with PaddingIndex) and the index
// of the action that followed it.
type Window struct {
	// Input is the context, length = window size - 1 (99 in the paper).
	Input []int
	// Target is the action to predict.
	Target int
}

// Windower slices encoded sessions into moving-window examples. The paper
// uses windows of length 100: a 99-action input predicting the 100th.
type Windower struct {
	size int // full window length, input is size-1
}

// NewWindower returns a windower with the given full window length
// (minimum 2: one observed action, one predicted).
func NewWindower(size int) (*Windower, error) {
	if size < 2 {
		return nil, fmt.Errorf("actionlog: window size %d < 2", size)
	}
	return &Windower{size: size}, nil
}

// InputLen returns the context length (the window size - 1).
func (w *Windower) InputLen() int { return w.size - 1 }

// Session converts one encoded session into its windows: for every
// position t >= 1 the window predicts action t from the (padded) context of
// the preceding actions, exactly the moving-window construction of the
// paper (§IV-A). A session of length n yields n-1 windows; sessions shorter
// than 2 yield none.
func (w *Windower) Session(encoded []int) []Window {
	if len(encoded) < 2 {
		return nil
	}
	ctxLen := w.InputLen()
	windows := make([]Window, 0, len(encoded)-1)
	for t := 1; t < len(encoded); t++ {
		in := make([]int, ctxLen)
		for i := range in {
			in[i] = PaddingIndex
		}
		start := t - ctxLen
		if start < 0 {
			start = 0
		}
		ctx := encoded[start:t]
		copy(in[ctxLen-len(ctx):], ctx)
		windows = append(windows, Window{Input: in, Target: encoded[t]})
	}
	return windows
}

// Corpus converts many encoded sessions into a flat window list.
func (w *Windower) Corpus(encoded [][]int) []Window {
	var out []Window
	for _, e := range encoded {
		out = append(out, w.Session(e)...)
	}
	return out
}
