package serve

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// Embedder maps raw per-sample inputs (feature vectors, NCHW images) to
// the dense probe embeddings the engine backends consume — the first
// stage of the end-to-end serving path. Implementations must be safe
// for concurrent callers: the HTTP layer runs one Embed per in-flight
// request on a shared instance.
type Embedder interface {
	// Name labels the embedder in the registry and /healthz.
	Name() string
	// InShape is the per-sample input shape (e.g. [3, H, W] for images).
	InShape() []int
	// OutDim is the embedding dimensionality produced, which must match
	// the backend the embedding is classified against.
	OutDim() int
	// Embed maps inputs [n, InShape...] to embeddings [n, OutDim],
	// returning a caller-owned tensor.
	Embed(x *tensor.Tensor) (*tensor.Tensor, error)
}

// NetEmbedder adapts a frozen network implementing the stateless
// nn.Inferer contract — a compiled plan (nn.CompiledNet) — into an
// Embedder: every Embed checks a Scratch out of the shared pool, runs
// the shared-read plan, and detaches the result. One NetEmbedder serves
// any number of concurrent requests on one frozen network.
type NetEmbedder struct {
	name    string
	net     nn.Inferer
	inShape []int
	outDim  int
}

// NewNetEmbedder wraps net as an embedder expecting per-sample inputs
// of inShape and producing outDim-dimensional embeddings. net is served
// as given; callers pass a compiled plan (nn.Compile, or
// core.ImageEncoder.Compiled / CompiledInt8), ideally precompiled for
// inShape so the first request does not build it. The source network
// must be frozen: nothing may call its training Forward while the
// embedder serves.
func NewNetEmbedder(name string, net nn.Inferer, inShape []int, outDim int) *NetEmbedder {
	if name == "" {
		panic("serve.NewNetEmbedder: empty name")
	}
	if net == nil {
		panic("serve.NewNetEmbedder: nil network")
	}
	if len(inShape) == 0 || outDim <= 0 {
		panic(fmt.Sprintf("serve.NewNetEmbedder: bad geometry in=%v out=%d", inShape, outDim))
	}
	for _, s := range inShape {
		if s <= 0 {
			panic(fmt.Sprintf("serve.NewNetEmbedder: non-positive dimension in %v", inShape))
		}
	}
	return &NetEmbedder{
		name: name, net: net,
		inShape: append([]int(nil), inShape...),
		outDim:  outDim,
	}
}

// Name returns the embedder's registry name.
func (e *NetEmbedder) Name() string { return e.name }

// InShape returns a copy of the expected per-sample input shape.
func (e *NetEmbedder) InShape() []int { return append([]int(nil), e.inShape...) }

// OutDim returns the embedding dimensionality.
func (e *NetEmbedder) OutDim() int { return e.outDim }

// Embed runs the frozen network over inputs [n, InShape...] and returns
// [n, OutDim] embeddings. Safe for concurrent callers.
func (e *NetEmbedder) Embed(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Rank() != len(e.inShape)+1 {
		return nil, fmt.Errorf("%w: input rank %d, embedder %q expects [n %v]",
			ErrBadInput, x.Rank(), e.name, e.inShape)
	}
	for i, s := range e.inShape {
		if x.Dim(i+1) != s {
			return nil, fmt.Errorf("%w: input shape %v, embedder %q expects [n %v]",
				ErrBadInput, x.Shape(), e.name, e.inShape)
		}
	}
	sc := nn.GetScratch()
	defer nn.PutScratch(sc)
	y := e.net.Infer(x, sc)
	if y.Rank() != 2 || y.Dim(1) != e.outDim {
		// Not ErrBadInput: the input was valid, the embedder was
		// registered with an out-dim its network does not produce — a
		// server-side configuration error (HTTP maps it to 500).
		return nil, fmt.Errorf("serve: embedder %q misconfigured: network produced %v, declared out dim %d",
			e.name, y.Shape(), e.outDim)
	}
	// Detach from the pooled scratch before it is reclaimed.
	return y.Clone(), nil
}
