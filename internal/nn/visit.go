package nn

// Visit walks every layer in the container depth-first, recursing into
// nested Sequentials and BasicBlocks, and calls fn on each leaf layer: the
// leaves a forward walk runs, in the same order.
func (s *Sequential) Visit(fn func(Layer)) { visit(s.Layers, fn) }

func visit(layers []Layer, fn func(Layer)) {
	for _, l := range layers {
		switch v := l.(type) {
		case *Sequential:
			visit(v.Layers, fn)
		case *BasicBlock:
			visit(v.stages(), fn)
		default:
			fn(l)
		}
	}
}

// State captures every float tensor a model needs to be reconstructed:
// trainable parameters plus batch-norm running statistics.
type State struct {
	// Params maps parameter name to its values.
	Params map[string][]float32
	// RunningMean and RunningVar map batch-norm layer name to statistics.
	RunningMean map[string][]float64
	// RunningVar — see RunningMean.
	RunningVar map[string][]float64
}

// CaptureState snapshots the model into a serializable State.
func (s *Sequential) CaptureState() *State {
	st := &State{
		Params:      map[string][]float32{},
		RunningMean: map[string][]float64{},
		RunningVar:  map[string][]float64{},
	}
	for _, p := range s.Params() {
		st.Params[p.Name] = append([]float32(nil), p.Value.Data...)
	}
	s.Visit(func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			st.RunningMean[bn.Name()] = append([]float64(nil), bn.RunningMean...)
			st.RunningVar[bn.Name()] = append([]float64(nil), bn.RunningVar...)
		}
	})
	return st
}

// AdoptState is LoadState without the copy: the model takes ownership of
// the state's slices, so a freshly decoded checkpoint materializes its
// float tensors exactly once instead of decode-buffer-plus-copy. The
// caller must hand over exclusive ownership — adopting a state that is
// shared (e.g. a cache entry) aliases the cache into the live model and
// every subsequent weight write poisons it; use LoadState there. Missing
// names or size mismatches panic, same contract as LoadState.
func (s *Sequential) AdoptState(st *State) { s.installState(st, true) }

// LoadState restores a snapshot previously captured from a model with the
// same architecture. Missing names or size mismatches panic: a
// state/architecture mismatch is a programming error, not a recoverable
// condition.
func (s *Sequential) LoadState(st *State) { s.installState(st, false) }

// installState checks st against the architecture and installs every
// tensor of it, by copy or, when adopt is set, by taking the slice.
func (s *Sequential) installState(st *State, adopt bool) {
	for _, p := range s.Params() {
		data, ok := st.Params[p.Name]
		if !ok {
			panic("nn: state missing parameter " + p.Name)
		}
		if len(data) != p.Value.Len() {
			panic("nn: state size mismatch for " + p.Name)
		}
		install(&p.Value.Data, data, adopt)
	}
	s.Visit(func(l Layer) {
		if bn, ok := l.(*BatchNorm2D); ok {
			rm, ok1 := st.RunningMean[bn.Name()]
			rv, ok2 := st.RunningVar[bn.Name()]
			if !ok1 || !ok2 {
				panic("nn: state missing BN stats for " + bn.Name())
			}
			if len(rm) != len(bn.RunningMean) || len(rv) != len(bn.RunningVar) {
				panic("nn: state size mismatch for BN stats of " + bn.Name())
			}
			install(&bn.RunningMean, rm, adopt)
			install(&bn.RunningVar, rv, adopt)
		}
	})
}

// install puts src in *dst: the slice itself when adopt is set, else a
// copy into the existing (equal-length) storage.
func install[T float32 | float64](dst *[]T, src []T, adopt bool) {
	if adopt {
		*dst = src
	} else {
		copy(*dst, src)
	}
}
