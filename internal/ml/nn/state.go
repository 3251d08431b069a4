package nn

import "fmt"

// LayerState is the full serializable state of one weight layer: the
// parameters plus the Adam first/second moments. Gradient accumulators
// and forward caches are scratch (zeroed by ZeroGrad / overwritten by
// Forward) and are deliberately excluded.
type LayerState struct {
	In, Out int
	Act     Activation
	W, B    []float64
	MW, VW  []float64
	MB, VB  []float64
}

// State is the full serializable optimizer-inclusive state of an MLP.
// Restoring it into a freshly built network makes subsequent training
// steps bit-identical to the original — Weights/SetWeights alone do not,
// because Adam's moment estimates and step counter shape every update.
type State struct {
	Layers []LayerState
	AdamT  int
}

// State deep-copies the network's full state.
func (m *MLP) State() State {
	st := State{AdamT: m.adamT, Layers: make([]LayerState, len(m.layers))}
	for i, ly := range m.layers {
		st.Layers[i] = LayerState{
			In: ly.in, Out: ly.out, Act: ly.act,
			W:  append([]float64(nil), ly.w...),
			B:  append([]float64(nil), ly.b...),
			MW: append([]float64(nil), ly.mw...),
			VW: append([]float64(nil), ly.vw...),
			MB: append([]float64(nil), ly.mb...),
			VB: append([]float64(nil), ly.vb...),
		}
	}
	return st
}

// CheckSizes reports whether st describes an MLP with exactly the given
// positive layer sizes (input first), every parameter and moment slice at
// its length. It multiplies no decoded size, so a caller can check decoded
// geometry before building a network from it: for a state that passes,
// every allocation the network makes is bounded by slices already read.
func (st State) CheckSizes(sizes []int) error {
	if len(st.Layers) != len(sizes)-1 {
		return fmt.Errorf("nn: state has %d layers, network has %d", len(st.Layers), len(sizes)-1)
	}
	for i, ls := range st.Layers {
		in, out := sizes[i], sizes[i+1]
		if in <= 0 || out <= 0 || ls.In != in || ls.Out != out {
			return fmt.Errorf("nn: layer %d geometry %dx%d != %dx%d", i, ls.Out, ls.In, out, in)
		}
		if len(ls.B) != out || len(ls.MB) != out || len(ls.VB) != out ||
			len(ls.W)%out != 0 || len(ls.W)/out != in || len(ls.MW) != len(ls.W) || len(ls.VW) != len(ls.W) {
			return fmt.Errorf("nn: layer %d state slice lengths inconsistent with %dx%d", i, out, in)
		}
	}
	return nil
}

// SetState restores a state captured by State. The layer geometry must
// match the receiver exactly; on any mismatch the receiver is left
// unchanged.
func (m *MLP) SetState(st State) error {
	sizes := []int{m.InDim()}
	for _, ly := range m.layers {
		sizes = append(sizes, ly.out)
	}
	if err := st.CheckSizes(sizes); err != nil {
		return err
	}
	for i, ls := range st.Layers {
		ly := m.layers[i]
		copy(ly.w, ls.W)
		copy(ly.b, ls.B)
		copy(ly.mw, ls.MW)
		copy(ly.vw, ls.VW)
		copy(ly.mb, ls.MB)
		copy(ly.vb, ls.VB)
	}
	m.adamT = st.AdamT
	return nil
}
