package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
)

// serializedParam is the gob wire form of one parameter.
type serializedParam struct {
	Name string
	Rows int
	Cols int
	Data []float64
}

// serializedNetwork is the gob wire form of a LanguageNetwork.
type serializedNetwork struct {
	Config NetworkConfig
	Params []serializedParam
	// Quant is set only in files written by an earlier reduced-precision
	// ("f16", "int8") serving path; such files carry no float64 weights
	// and are refused on load. Full-precision files leave it empty.
	Quant string
}

// Save writes the network weights and configuration to w with gob.
// The encoder only reads the weights, so it is handed them directly.
func (n *LanguageNetwork) Save(w io.Writer) error {
	s := serializedNetwork{Config: n.cfg}
	for _, p := range n.Params() {
		s.Params = append(s.Params, serializedParam{Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols, Data: p.W.Data})
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("nn: save network: %w", err)
	}
	return nil
}

// maxLoadCells bounds the network a serialized file may declare. The
// loader allocates no weights from the config (the decoder allocates
// only the data the file carries), but the config sizes what serving
// then allocates, the packed copies and every stream's state, and the
// products of its dimensions must not overflow int, so a corrupted or
// hostile file declaring billion-unit layers is refused up front. The
// input dimension is the action vocabulary, at most
// actionlog.MaxVocabSize as for every backend (NetworkConfig.validate);
// the largest matrix the config implies, the stacked LSTM gate weights
// 4*hidden x (input+hidden), is bounded to 1<<24 cells (128 MiB of
// float64), which comfortably covers the paper scale (300-action
// vocabulary x 256 hidden units).
const maxLoadCells = 1 << 24

// LoadLanguageNetwork reads a network previously written by Save. Once
// the config and every parameter's count, name, shape and length check
// out, the decoded slices become the weights: no initialization runs
// and no weight is copied.
func LoadLanguageNetwork(r io.Reader) (*LanguageNetwork, error) {
	var s serializedNetwork
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load network: %w", err)
	}
	if err := s.Config.validate(); err != nil {
		return nil, fmt.Errorf("nn: load network config: %w", err)
	}
	in, hidden := s.Config.InputSize, s.Config.HiddenSize
	// Bounding hidden first keeps 4*(in+hidden) below 2^31, and the
	// cell bound is compared via division, so neither can overflow int
	// on 32-bit platforms (4*hidden*(in+hidden) wraps there well before
	// the allocation would fail).
	if hidden > maxLoadCells/4 || hidden > maxLoadCells/(4*(in+hidden)) {
		return nil, fmt.Errorf("nn: load network: dimensions %dx%d exceed the load limits (corrupted file?)",
			in, hidden)
	}
	if s.Quant != "" {
		return nil, fmt.Errorf("nn: load network: weights stored at %q precision are no longer supported; re-save the model at f64",
			s.Quant)
	}
	n := newLanguageNetwork(s.Config, newLSTM(in, hidden, shapeParam), newDense(hidden, in, shapeParam),
		rand.New(rand.NewSource(s.Config.Seed)))
	if err := n.setParams(s.Params); err != nil {
		return nil, err
	}
	return n, nil
}

// setParams adopts serialized weights as the network's parameters' W,
// which they must match in order, name and shape.
func (n *LanguageNetwork) setParams(sps []serializedParam) error {
	params := n.Params()
	if len(params) != len(sps) {
		return fmt.Errorf("nn: load network: %d params, want %d", len(sps), len(params))
	}
	for i, sp := range sps {
		p := params[i]
		if p.Name != sp.Name || p.W.Rows != sp.Rows || p.W.Cols != sp.Cols {
			return fmt.Errorf("nn: load network: param %d is %s %dx%d, want %s %dx%d",
				i, sp.Name, sp.Rows, sp.Cols, p.Name, p.W.Rows, p.W.Cols)
		}
		if len(sp.Data) != sp.Rows*sp.Cols {
			return fmt.Errorf("nn: load network: param %s has %d values for %dx%d",
				sp.Name, len(sp.Data), sp.Rows, sp.Cols)
		}
	}
	for i, sp := range sps {
		params[i].W.Data = sp.Data
		params[i].gen++
	}
	return nil
}
