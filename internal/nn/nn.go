// Package nn provides the neural-network building blocks used by the
// coarsening model and the learned baselines: parameter registries, linear
// layers, multi-layer perceptrons, an LSTM cell, multi-head self-attention,
// and the Adam optimizer — all on top of the autodiff tape.
package nn

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"sort"

	"repro/internal/autodiff"
	"repro/internal/ckpt"
	"repro/internal/tensor"
)

// Param is a named learnable matrix with Adam moment state.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
	m, v  *tensor.Matrix // Adam first/second moments
	idx   int            // registration index within the owning ParamSet
}

// ParamSet is a registry of parameters belonging to one model.
type ParamSet struct {
	params []*Param
	byName map[string]*Param
}

// NewParamSet returns an empty registry.
func NewParamSet() *ParamSet {
	return &ParamSet{byName: make(map[string]*Param)}
}

// New registers a fresh zeroed parameter with the given shape.
func (ps *ParamSet) New(name string, rows, cols int) *Param {
	if _, dup := ps.byName[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	p := &Param{
		Name:  name,
		Value: tensor.New(rows, cols),
		Grad:  tensor.New(rows, cols),
		m:     tensor.New(rows, cols),
		v:     tensor.New(rows, cols),
		idx:   len(ps.params),
	}
	ps.params = append(ps.params, p)
	ps.byName[name] = p
	return p
}

// NewXavier registers a parameter initialized Glorot-uniform.
func (ps *ParamSet) NewXavier(name string, rows, cols int, rng *rand.Rand) *Param {
	p := ps.New(name, rows, cols)
	p.Value.XavierInit(rng, cols, rows)
	return p
}

// All returns the registered parameters in registration order.
func (ps *ParamSet) All() []*Param { return ps.params }

// Get returns a parameter by name, or nil.
func (ps *ParamSet) Get(name string) *Param { return ps.byName[name] }

// Count returns the total number of scalar parameters.
func (ps *ParamSet) Count() int {
	n := 0
	for _, p := range ps.params {
		n += len(p.Value.Data)
	}
	return n
}

// ZeroGrads clears all accumulated gradients.
func (ps *ParamSet) ZeroGrads() {
	for _, p := range ps.params {
		p.Grad.Zero()
	}
}

// Binder creates tape leaves for parameters and remembers the association
// so gradients can be pulled back after Backward.
type Binder struct {
	Tape  *autodiff.Tape
	nodes map[*Param]*autodiff.Node
	snap  *Snapshot // when set, leaves bind the snapshot's value copies
}

// NewBinder wraps a tape.
func NewBinder(t *autodiff.Tape) *Binder {
	return &Binder{Tape: t, nodes: make(map[*Param]*autodiff.Node)}
}

// BindSnapshot makes subsequent Node calls create leaves over s's value
// copies instead of the live parameter matrices, so a forward pass reads a
// consistent view while someone else owns the live values: a data-parallel
// replica while the leader steps the optimizer, or the serving daemon
// while a reload replaces the parameters (core.Model.ProbsInto). The
// binding persists across Reset; pass nil to bind live values again.
func (b *Binder) BindSnapshot(s *Snapshot) { b.snap = s }

// Node returns (creating on first use) the tape leaf for p.
func (b *Binder) Node(p *Param) *autodiff.Node {
	if n, ok := b.nodes[p]; ok {
		return n
	}
	v := p.Value
	if b.snap != nil {
		v = b.snap.Value(p)
	}
	n := b.Tape.Leaf(v)
	b.nodes[p] = n
	return n
}

// Collect accumulates tape gradients into every bound parameter's Grad
// buffer.
func (b *Binder) Collect() {
	for p, n := range b.nodes {
		if g := n.Grad(); g != nil {
			tensor.AddInPlace(p.Grad, g)
		}
	}
}

// CollectInto accumulates tape gradients into gs instead of the live
// parameter Grad buffers — the per-replica half of a deterministic
// all-reduce: each replica exports into its own GradSet, and the leader
// folds the sets into the parameters in a fixed order.
func (b *Binder) CollectInto(gs *GradSet) {
	for p, n := range b.nodes {
		n.AddGradInto(gs.Grad(p))
	}
}

// Reset recycles the binder for the next training step: the tape's node
// slab and arena-backed matrices are reclaimed (autodiff.Tape.Reset) and
// the parameter→leaf map is cleared in place, so a reused binder performs
// no steady-state allocations. Matrices previously read off the tape
// (values or gradients) must not be used after Reset.
func (b *Binder) Reset() {
	b.Tape.Reset()
	clear(b.nodes)
}

// Adam is the Adam optimizer (Kingma & Ba, 2014) with optional gradient
// clipping by global norm.
type Adam struct {
	LR       float64
	Beta1    float64
	Beta2    float64
	Eps      float64
	ClipNorm float64 // 0 disables clipping
	step     int
}

// NewAdam returns Adam with the paper's defaults (lr=0.001).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, ClipNorm: 5}
}

// Step applies one update to every parameter using its Grad buffer.
func (a *Adam) Step(ps *ParamSet) {
	a.step++
	if a.ClipNorm > 0 {
		var norm2 float64
		for _, p := range ps.params {
			for _, g := range p.Grad.Data {
				norm2 += g * g
			}
		}
		if norm := math.Sqrt(norm2); norm > a.ClipNorm {
			scale := a.ClipNorm / norm
			for _, p := range ps.params {
				for i := range p.Grad.Data {
					p.Grad.Data[i] *= scale
				}
			}
		}
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range ps.params {
		for i, g := range p.Grad.Data {
			p.m.Data[i] = a.Beta1*p.m.Data[i] + (1-a.Beta1)*g
			p.v.Data[i] = a.Beta2*p.v.Data[i] + (1-a.Beta2)*g*g
			mh := p.m.Data[i] / b1c
			vh := p.v.Data[i] / b2c
			p.Value.Data[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
}

// StepCount returns the number of optimizer steps taken.
func (a *Adam) StepCount() int { return a.step }

// AdamState is the serializable optimizer state: hyperparameters plus the
// bias-correction step count. Per-parameter moments are carried by
// ParamState, so AdamState + a StateMap fully determine the next update.
type AdamState struct {
	LR       float64 `json:"lr"`
	Beta1    float64 `json:"beta1"`
	Beta2    float64 `json:"beta2"`
	Eps      float64 `json:"eps"`
	ClipNorm float64 `json:"clip_norm"`
	Step     int     `json:"step"`
}

// State snapshots the optimizer.
func (a *Adam) State() AdamState {
	return AdamState{LR: a.LR, Beta1: a.Beta1, Beta2: a.Beta2, Eps: a.Eps, ClipNorm: a.ClipNorm, Step: a.step}
}

// SetState restores a snapshot taken by State.
func (a *Adam) SetState(s AdamState) {
	a.LR, a.Beta1, a.Beta2, a.Eps, a.ClipNorm, a.step = s.LR, s.Beta1, s.Beta2, s.Eps, s.ClipNorm, s.Step
}

// Linear is a fully connected layer y = x·Wᵀ + b.
type Linear struct {
	W *Param // out×in
	B *Param // 1×out
}

// NewLinear registers a Glorot-initialized linear layer on ps.
func NewLinear(ps *ParamSet, name string, in, out int, rng *rand.Rand) *Linear {
	return &Linear{
		W: ps.NewXavier(name+".W", out, in, rng),
		B: ps.New(name+".b", 1, out),
	}
}

// Apply records y = x·Wᵀ + b on the binder's tape as one fused entry —
// the transposed weight copy is never materialized. x is rows×in.
func (l *Linear) Apply(b *Binder, x *autodiff.Node) *autodiff.Node {
	return b.Tape.Affine(x, b.Node(l.W), b.Node(l.B))
}

// ApplyTanh records y = tanh(x·Wᵀ + b) as one fused tape entry, with the
// activation applied in the kernel's store loop.
func (l *Linear) ApplyTanh(b *Binder, x *autodiff.Node) *autodiff.Node {
	return b.Tape.AffineTanh(x, b.Node(l.W), b.Node(l.B))
}

// Activation selects the non-linearity applied between MLP layers.
type Activation int

// Supported activations.
const (
	ActTanh Activation = iota
	ActReLU
	ActSigmoid
	ActNone
)

func applyAct(t *autodiff.Tape, x *autodiff.Node, a Activation) *autodiff.Node {
	switch a {
	case ActTanh:
		return t.Tanh(x)
	case ActReLU:
		return t.ReLU(x)
	case ActSigmoid:
		return t.Sigmoid(x)
	default:
		return x
	}
}

// MLP is a stack of linear layers with a shared hidden activation and a
// configurable output activation.
type MLP struct {
	Layers []*Linear
	Hidden Activation
	Out    Activation
}

// NewMLP builds an MLP with the given layer sizes, e.g. sizes = [in, h, out].
func NewMLP(ps *ParamSet, name string, sizes []int, hidden, out Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least two sizes")
	}
	m := &MLP{Hidden: hidden, Out: out}
	for i := 0; i+1 < len(sizes); i++ {
		m.Layers = append(m.Layers, NewLinear(ps, fmt.Sprintf("%s.l%d", name, i), sizes[i], sizes[i+1], rng))
	}
	return m
}

// Apply records the full MLP forward pass. Tanh layers take the fused
// affine+tanh path; other activations apply as separate tape entries.
func (m *MLP) Apply(b *Binder, x *autodiff.Node) *autodiff.Node {
	for i, l := range m.Layers {
		act := m.Hidden
		if i+1 == len(m.Layers) {
			act = m.Out
		}
		if act == ActTanh {
			x = l.ApplyTanh(b, x)
			continue
		}
		x = applyAct(b.Tape, l.Apply(b, x), act)
	}
	return x
}

// LSTMCell is a standard LSTM cell used by the sequential decoders of the
// Graph-enc-dec and Hierarchical baselines.
type LSTMCell struct {
	// Gates stacked as one matrix for efficiency: [i; f; g; o].
	Wx *Param // 4h×in
	Wh *Param // 4h×h
	B  *Param // 1×4h
	H  int
}

// NewLSTMCell registers an LSTM cell with input size in and hidden size h.
func NewLSTMCell(ps *ParamSet, name string, in, h int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{
		Wx: ps.NewXavier(name+".Wx", 4*h, in, rng),
		Wh: ps.NewXavier(name+".Wh", 4*h, h, rng),
		B:  ps.New(name+".b", 1, 4*h),
		H:  h,
	}
	// Initialize forget-gate bias to 1 (standard trick for gradient flow).
	for j := h; j < 2*h; j++ {
		c.B.Value.Data[j] = 1
	}
	return c
}

// Step records one LSTM step. x is 1×in; h, c are 1×H (pass tape constants
// of zeros for the initial state). Returns (hNext, cNext).
func (l *LSTMCell) Step(b *Binder, x, h, c *autodiff.Node) (*autodiff.Node, *autodiff.Node) {
	t := b.Tape
	z := t.Add(
		t.MatMulT2(x, b.Node(l.Wx)),
		t.MatMulT2(h, b.Node(l.Wh)),
	)
	z = t.AddRowVector(z, b.Node(l.B))
	H := l.H
	ig := t.Sigmoid(t.SliceCols(z, 0, H))
	fg := t.Sigmoid(t.SliceCols(z, H, 2*H))
	gg := t.Tanh(t.SliceCols(z, 2*H, 3*H))
	og := t.Sigmoid(t.SliceCols(z, 3*H, 4*H))
	cNext := t.Add(t.Mul(fg, c), t.Mul(ig, gg))
	hNext := t.Mul(og, t.Tanh(cNext))
	return hNext, cNext
}

// MultiHeadAttention is a single block of scaled dot-product self-attention
// (the simplification of GDP's Transformer-XL placement network; see
// DESIGN.md §2).
type MultiHeadAttention struct {
	WQ, WK, WV, WO *Param
	Heads          int
	Dim            int // model dimension; per-head dim = Dim/Heads
}

// NewMultiHeadAttention registers an attention block with model dim d and
// the given number of heads (d must be divisible by heads).
func NewMultiHeadAttention(ps *ParamSet, name string, d, heads int, rng *rand.Rand) *MultiHeadAttention {
	if d%heads != 0 {
		panic("nn: attention dim must be divisible by heads")
	}
	return &MultiHeadAttention{
		WQ:    ps.NewXavier(name+".WQ", d, d, rng),
		WK:    ps.NewXavier(name+".WK", d, d, rng),
		WV:    ps.NewXavier(name+".WV", d, d, rng),
		WO:    ps.NewXavier(name+".WO", d, d, rng),
		Heads: heads,
		Dim:   d,
	}
}

// Apply records self-attention over x (N×Dim) and returns N×Dim with a
// residual connection.
func (a *MultiHeadAttention) Apply(b *Binder, x *autodiff.Node) *autodiff.Node {
	t := b.Tape
	q := t.MatMulT2(x, b.Node(a.WQ))
	k := t.MatMulT2(x, b.Node(a.WK))
	v := t.MatMulT2(x, b.Node(a.WV))
	dh := a.Dim / a.Heads
	outs := make([]*autodiff.Node, a.Heads)
	for h := 0; h < a.Heads; h++ {
		qh := t.SliceCols(q, h*dh, (h+1)*dh)
		kh := t.SliceCols(k, h*dh, (h+1)*dh)
		vh := t.SliceCols(v, h*dh, (h+1)*dh)
		scores := t.Scale(t.MatMulT2(qh, kh), 1/math.Sqrt(float64(dh)))
		// softmax = exp(log-softmax); two tape ops, numerically stable.
		attn := t.Exp(t.LogSoftmaxRows(scores))
		outs[h] = t.MatMul(attn, vh)
	}
	concat := t.ConcatCols(outs...)
	proj := t.MatMulT2(concat, b.Node(a.WO))
	return t.Add(x, proj) // residual
}

// paramsKind tags parameter checkpoints inside the ckpt envelope.
const paramsKind = "nn-params"

// SaveParams writes all parameter values of ps to path as a checksummed
// envelope (see internal/ckpt), written atomically so a crash mid-save
// cannot corrupt an existing file.
func SaveParams(ps *ParamSet, path string) error {
	out := make(map[string]savedParam, len(ps.params))
	for _, p := range ps.params {
		out[p.Name] = savedParam{Rows: p.Value.Rows, Cols: p.Value.Cols, Data: p.Value.Data}
	}
	if err := ckpt.WriteFile(path, paramsKind, out); err != nil {
		return fmt.Errorf("nn: save params: %w", err)
	}
	return nil
}

// LoadParams reads parameter values from path, a checksum-verified
// "nn-params" envelope written by SaveParams, into ps. Every parameter of
// ps must be present in the file with a matching shape and a complete
// data vector — a truncated, corrupt, or partial file is rejected with a
// descriptive error instead of silently zero-filling or partially
// updating the model.
func LoadParams(ps *ParamSet, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("nn: load params: %w", err)
	}
	var in map[string]savedParam
	if err := ckpt.Decode(data, paramsKind, &in); err != nil {
		return fmt.Errorf("nn: %s: %w", path, err)
	}
	// Validate everything before touching ps so a bad file cannot leave
	// the model half-loaded.
	for name, sp := range in {
		p := ps.Get(name)
		if p == nil {
			return fmt.Errorf("nn: unknown parameter %q in %s", name, path)
		}
		if p.Value.Rows != sp.Rows || p.Value.Cols != sp.Cols {
			return fmt.Errorf("nn: shape mismatch for %q: have %dx%d, file %dx%d",
				name, p.Value.Rows, p.Value.Cols, sp.Rows, sp.Cols)
		}
		if len(sp.Data) != sp.Rows*sp.Cols {
			return fmt.Errorf("nn: truncated data for %q in %s: %d values, want %d",
				name, path, len(sp.Data), sp.Rows*sp.Cols)
		}
	}
	if missing := missingNames(ps, in); len(missing) > 0 {
		return fmt.Errorf("nn: %s is missing parameters %v (partial file?)", path, missing)
	}
	for name, sp := range in {
		copy(ps.Get(name).Value.Data, sp.Data)
	}
	return nil
}

// missingNames lists parameters of ps absent from the loaded map.
func missingNames(ps *ParamSet, in map[string]savedParam) []string {
	var missing []string
	for _, p := range ps.params {
		if _, ok := in[p.Name]; !ok {
			missing = append(missing, p.Name)
		}
	}
	sort.Strings(missing)
	return missing
}

type savedParam struct {
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// ParamState is the full serialized state of one parameter: its value and
// both Adam moment vectors. Full-state checkpoints persist these so a
// resumed run continues the exact optimizer trajectory.
type ParamState struct {
	Rows  int       `json:"rows"`
	Cols  int       `json:"cols"`
	Value []float64 `json:"value"`
	M     []float64 `json:"m"`
	V     []float64 `json:"v"`
}

// StateMap deep-copies every parameter's value and Adam moments.
func (ps *ParamSet) StateMap() map[string]ParamState {
	out := make(map[string]ParamState, len(ps.params))
	for _, p := range ps.params {
		out[p.Name] = ParamState{
			Rows:  p.Value.Rows,
			Cols:  p.Value.Cols,
			Value: append([]float64(nil), p.Value.Data...),
			M:     append([]float64(nil), p.m.Data...),
			V:     append([]float64(nil), p.v.Data...),
		}
	}
	return out
}

// SaveState copies every parameter's value and Adam moments into buf,
// which holds 3·Count() floats. It allocates nothing: the divergence
// guard snapshots after every update (StateMap is the serializable form
// for checkpoints).
func (ps *ParamSet) SaveState(buf []float64) {
	for _, p := range ps.params {
		buf = buf[copy(buf, p.Value.Data):]
		buf = buf[copy(buf, p.m.Data):]
		buf = buf[copy(buf, p.v.Data):]
	}
}

// RestoreState copies a SaveState buffer back into ps.
func (ps *ParamSet) RestoreState(buf []float64) {
	for _, p := range ps.params {
		buf = buf[copy(p.Value.Data, buf):]
		buf = buf[copy(p.m.Data, buf):]
		buf = buf[copy(p.v.Data, buf):]
	}
}

// RestoreStateMap loads a StateMap back into ps. Every parameter of ps
// must be present with matching shape and complete vectors; validation
// happens before any mutation so failure leaves ps untouched.
func (ps *ParamSet) RestoreStateMap(in map[string]ParamState) error {
	for _, p := range ps.params {
		st, ok := in[p.Name]
		if !ok {
			return fmt.Errorf("nn: state missing parameter %q", p.Name)
		}
		if st.Rows != p.Value.Rows || st.Cols != p.Value.Cols {
			return fmt.Errorf("nn: state shape mismatch for %q: have %dx%d, state %dx%d",
				p.Name, p.Value.Rows, p.Value.Cols, st.Rows, st.Cols)
		}
		n := st.Rows * st.Cols
		if len(st.Value) != n || len(st.M) != n || len(st.V) != n {
			return fmt.Errorf("nn: truncated state for %q: value/m/v lengths %d/%d/%d, want %d",
				p.Name, len(st.Value), len(st.M), len(st.V), n)
		}
	}
	for _, p := range ps.params {
		st := in[p.Name]
		copy(p.Value.Data, st.Value)
		copy(p.m.Data, st.M)
		copy(p.v.Data, st.V)
	}
	return nil
}

// CheckFiniteGrads returns an error naming the first parameter whose
// gradient buffer holds a NaN or Inf — the divergence-guard probe run
// before every optimizer step.
func (ps *ParamSet) CheckFiniteGrads() error {
	for _, p := range ps.params {
		for i, g := range p.Grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				return fmt.Errorf("nn: non-finite gradient %v at %s[%d]", g, p.Name, i)
			}
		}
	}
	return nil
}

// CheckFiniteValues returns an error naming the first parameter whose
// value holds a NaN or Inf.
func (ps *ParamSet) CheckFiniteValues() error {
	for _, p := range ps.params {
		for i, v := range p.Value.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: non-finite value %v at %s[%d]", v, p.Name, i)
			}
		}
	}
	return nil
}

// CopyValuesFrom copies parameter values from src into ps by name; both
// sets must contain identically shaped parameters. Used by curriculum
// fine-tuning to warm-start a model.
func CopyValuesFrom(dst, src *ParamSet) error {
	for _, p := range dst.params {
		sp := src.Get(p.Name)
		if sp == nil {
			return fmt.Errorf("nn: source missing parameter %q", p.Name)
		}
		if !sp.Value.SameShape(p.Value) {
			return fmt.Errorf("nn: shape mismatch for %q", p.Name)
		}
		copy(p.Value.Data, sp.Value.Data)
	}
	return nil
}
