package nn

import (
	"encoding/gob"
	"fmt"
	"io"
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
func (n *LanguageNetwork) Save(w io.Writer) error {
	s := serializedNetwork{Config: n.cfg}
	for _, p := range n.Params() {
		s.Params = append(s.Params, serializedParam{
			Name: p.Name, Rows: p.W.Rows, Cols: p.W.Cols,
			Data: append([]float64(nil), p.W.Data...),
		})
	}
	if err := gob.NewEncoder(w).Encode(&s); err != nil {
		return fmt.Errorf("nn: save network: %w", err)
	}
	return nil
}

// maxLoadDim and maxLoadCells bound the network dimensions accepted
// from a serialized file. NewLanguageNetwork allocates O(dim^2) weight
// matrices straight from the decoded config, so without a ceiling a
// corrupted or hostile file declaring billion-unit layers forces a huge
// allocation (or an overflowing rows*cols) before any weight data is
// even read. The per-dimension cap alone is not enough — two dims at
// the cap still multiply into terabytes — so the largest matrix the
// config implies (the stacked LSTM gate weights, 4*hidden x
// (input+hidden)) is bounded to 1<<24 cells (128 MiB of float64),
// which comfortably covers the paper scale (300-action vocabulary x
// 256 hidden units).
const (
	maxLoadDim   = 1 << 20
	maxLoadCells = 1 << 24
)

// LoadLanguageNetwork reads a network previously written by Save.
func LoadLanguageNetwork(r io.Reader) (*LanguageNetwork, error) {
	var s serializedNetwork
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load network: %w", err)
	}
	in, hidden := s.Config.InputSize, s.Config.HiddenSize
	// The cell bound is compared via division so it cannot overflow int
	// on 32-bit platforms (4*hidden*(in+hidden) wraps there well before
	// the allocation would fail).
	if in > maxLoadDim || hidden > maxLoadDim ||
		(in > 0 && hidden > 0 && hidden > maxLoadCells/(4*(in+hidden))) {
		return nil, fmt.Errorf("nn: load network: dimensions %dx%d exceed the load limits (corrupted file?)",
			in, hidden)
	}
	if s.Quant != "" {
		return nil, fmt.Errorf("nn: load network: weights stored at %q precision are no longer supported; re-save the model at f64",
			s.Quant)
	}
	n, err := NewLanguageNetwork(s.Config)
	if err != nil {
		return nil, fmt.Errorf("nn: load network config: %w", err)
	}
	params := n.Params()
	if len(params) != len(s.Params) {
		return nil, fmt.Errorf("nn: load network: %d params, want %d", len(s.Params), len(params))
	}
	for i, sp := range s.Params {
		p := params[i]
		if p.Name != sp.Name || p.W.Rows != sp.Rows || p.W.Cols != sp.Cols {
			return nil, fmt.Errorf("nn: load network: param %d is %s %dx%d, want %s %dx%d",
				i, sp.Name, sp.Rows, sp.Cols, p.Name, p.W.Rows, p.W.Cols)
		}
		if len(sp.Data) != sp.Rows*sp.Cols {
			return nil, fmt.Errorf("nn: load network: param %s has %d values for %dx%d",
				sp.Name, len(sp.Data), sp.Rows, sp.Cols)
		}
		copy(p.W.Data, sp.Data)
	}
	return n, nil
}
