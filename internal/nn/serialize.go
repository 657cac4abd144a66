package nn

import (
	"encoding/json"
	"fmt"

	"advnet/internal/mathx"
)

// snapshot is the on-disk representation of an MLP.
type snapshot struct {
	Sizes  []int       `json:"sizes"`
	Hidden string      `json:"hidden"`
	W      [][]float64 `json:"w"`
	B      [][]float64 `json:"b"`
}

// MarshalJSON encodes the network architecture and parameters.
func (m *MLP) MarshalJSON() ([]byte, error) {
	s := snapshot{Sizes: m.Sizes(), Hidden: m.hidden.String()}
	for _, l := range m.layers {
		s.W = append(s.W, mathx.CopyOf(l.W))
		s.B = append(s.B, mathx.CopyOf(l.B))
	}
	return json.Marshal(s)
}

// UnmarshalJSON decodes a network previously produced by MarshalJSON,
// replacing m's architecture and parameters.
func (m *MLP) UnmarshalJSON(data []byte) error {
	var s snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	var hidden Activation
	switch s.Hidden {
	case "identity":
		hidden = Identity
	case "tanh":
		hidden = Tanh
	case "relu":
		hidden = ReLU
	default:
		return fmt.Errorf("nn: unknown activation %q", s.Hidden)
	}
	if len(s.Sizes) < 2 {
		return fmt.Errorf("nn: snapshot has %d sizes, need >= 2", len(s.Sizes))
	}
	for i, sz := range s.Sizes {
		if sz <= 0 {
			return fmt.Errorf("nn: snapshot size %d at index %d, need > 0", sz, i)
		}
	}
	nLayers := len(s.Sizes) - 1
	if len(s.W) != nLayers || len(s.B) != nLayers {
		return fmt.Errorf("nn: snapshot layer count mismatch")
	}
	layers := make([]*Dense, nLayers)
	for i := 0; i < nLayers; i++ {
		in, out := s.Sizes[i], s.Sizes[i+1]
		if len(s.W[i]) != in*out || len(s.B[i]) != out {
			return fmt.Errorf("nn: snapshot layer %d shape mismatch", i)
		}
		layers[i] = &Dense{
			In: in, Out: out,
			W:     mathx.CopyOf(s.W[i]),
			B:     mathx.CopyOf(s.B[i]),
			gradW: make([]float64, in*out),
			gradB: make([]float64, out),
		}
	}
	m.setLayers(layers)
	m.hidden = hidden
	return nil
}
