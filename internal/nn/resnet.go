package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/tensor"
)

// ResNetConfig describes a residual image-encoder backbone: a stem
// convolution followed by four stages of residual blocks and a global
// average pool, the topology of the paper's ResNet50/ResNet101 image
// encoders. Width is configurable so the same topology runs at laptop
// scale; the presets keep the paper's stage-depth ratios.
type ResNetConfig struct {
	// Name labels the variant in reports ("ResNet50", "ResNet101", …).
	Name string
	// StageDepths gives the number of residual blocks in each of the four
	// stages: ResNet50 uses {3,4,6,3}, ResNet101 {3,4,23,3}.
	StageDepths [4]int
	// BaseWidth is the channel count of stage 1; stages double it.
	BaseWidth int
	// Bottleneck selects 1×1→3×3→1×1 bottleneck blocks (expansion 4, the
	// ResNet50/101 block) instead of two-3×3 basic blocks.
	Bottleneck bool
	// InChannels is the image channel count (3 for RGB).
	InChannels int
	// FlattenPool replaces the final global average pool with a flatten of
	// the stage-4 feature map. At the reproduction's small image sizes the
	// attribute groups occupy individual grid cells, and averaging over
	// space would discard the position information needed to tell "blue
	// crown" from "blue wing"; flattening preserves it. FlattenH/W give
	// the expected stage-4 spatial size (input H/8 × W/8 with the stem at
	// stride 1 and three stride-2 stage transitions).
	FlattenPool        bool
	FlattenH, FlattenW int
}

// expansion returns the block output-channel multiplier.
func (c ResNetConfig) expansion() int {
	if c.Bottleneck {
		return 4
	}
	return 1
}

// OutDim returns the embedding dimension d' produced after the final
// spatial reduction (global average pool, or flatten when FlattenPool is
// set).
func (c ResNetConfig) OutDim() int {
	channels := c.BaseWidth * 8 * c.expansion()
	if c.FlattenPool {
		return channels * c.FlattenH * c.FlattenW
	}
	return channels
}

// ResNet50Config returns the paper's preferred backbone topology at the
// given base width (the authors' full-scale model corresponds to width 64).
func ResNet50Config(baseWidth int) ResNetConfig {
	return ResNetConfig{
		Name: "ResNet50", StageDepths: [4]int{3, 4, 6, 3},
		BaseWidth: baseWidth, Bottleneck: true, InChannels: 3,
	}
}

// ResNet101Config returns the deeper ablation backbone of Table II.
func ResNet101Config(baseWidth int) ResNetConfig {
	return ResNetConfig{
		Name: "ResNet101", StageDepths: [4]int{3, 4, 23, 3},
		BaseWidth: baseWidth, Bottleneck: true, InChannels: 3,
	}
}

// MicroResNet50Config returns a laptop-scale stand-in that keeps the
// bottleneck topology and relative depth profile of ResNet50 with one
// block per stage; it is the default experiment backbone, because a
// full-depth ResNet50 cannot train on CPU in the experiments' budget.
func MicroResNet50Config(baseWidth int) ResNetConfig {
	return ResNetConfig{
		Name: "ResNet50", StageDepths: [4]int{1, 1, 1, 1},
		BaseWidth: baseWidth, Bottleneck: true, InChannels: 3,
	}
}

// MicroResNet101Config returns the deeper micro variant used for the
// Table II ResNet101 row: same width, ~2× the blocks of MicroResNet50,
// echoing the 50→101 depth growth.
func MicroResNet101Config(baseWidth int) ResNetConfig {
	return ResNetConfig{
		Name: "ResNet101", StageDepths: [4]int{1, 2, 3, 1},
		BaseWidth: baseWidth, Bottleneck: true, InChannels: 3,
	}
}

// WithFlatten returns a copy of the config using a position-preserving
// flatten over the stage-4 feature map of an inputH×inputW image instead
// of global average pooling.
func (c ResNetConfig) WithFlatten(inputH, inputW int) ResNetConfig {
	c.FlattenPool = true
	// Each stride-2 stage transition (3×3 conv, pad 1) maps h → ceil(h/2);
	// three transitions give ceil(h/8).
	c.FlattenH = (inputH + 7) / 8
	c.FlattenW = (inputW + 7) / 8
	return c
}

// residualBlock is one basic or bottleneck residual unit with an optional
// projection shortcut, implementing Layer.
type residualBlock struct {
	main     *Sequential
	shortcut *Sequential // nil for identity
	relu     *ReLU
}

func newResidualBlock(rng *rand.Rand, name string, inC, width, stride int, bottleneck bool) *residualBlock {
	outC := width
	var main *Sequential
	if bottleneck {
		outC = width * 4
		main = NewSequential(
			NewConv2D(rng, name+".conv1", inC, width, 1, 1, 0, false),
			NewBatchNorm2D(name+".bn1", width),
			NewReLU(),
			NewConv2D(rng, name+".conv2", width, width, 3, stride, 1, false),
			NewBatchNorm2D(name+".bn2", width),
			NewReLU(),
			NewConv2D(rng, name+".conv3", width, outC, 1, 1, 0, false),
			NewBatchNorm2D(name+".bn3", outC),
		)
	} else {
		main = NewSequential(
			NewConv2D(rng, name+".conv1", inC, width, 3, stride, 1, false),
			NewBatchNorm2D(name+".bn1", width),
			NewReLU(),
			NewConv2D(rng, name+".conv2", width, outC, 3, 1, 1, false),
			NewBatchNorm2D(name+".bn2", outC),
		)
	}
	b := &residualBlock{main: main, relu: NewReLU()}
	if stride != 1 || inC != outC {
		b.shortcut = NewSequential(
			NewConv2D(rng, name+".down", inC, outC, 1, stride, 0, false),
			NewBatchNorm2D(name+".downbn", outC),
		)
	}
	return b
}

// Forward computes relu(main(x) + shortcut(x)).
func (b *residualBlock) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	y := b.main.Forward(x, train)
	var sc *tensor.Tensor
	if b.shortcut != nil {
		sc = b.shortcut.Forward(x, train)
	} else {
		sc = x
	}
	return b.relu.Forward(tensor.Add(y, sc), train)
}

// Backward splits the gradient between the main branch and the shortcut
// and sums the two input gradients.
func (b *residualBlock) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dsum := b.relu.Backward(dout)
	dxMain := b.main.Backward(dsum)
	var dxShort *tensor.Tensor
	if b.shortcut != nil {
		dxShort = b.shortcut.Backward(dsum)
	} else {
		dxShort = dsum
	}
	return tensor.Add(dxMain, dxShort)
}

// Params returns the block's trainable parameters.
func (b *residualBlock) Params() []*Param {
	ps := b.main.Params()
	if b.shortcut != nil {
		ps = append(ps, b.shortcut.Params()...)
	}
	return ps
}

// ResNet is a residual backbone producing [N, OutDim] embeddings from
// NCHW images; it implements Layer.
type ResNet struct {
	Config ResNetConfig
	body   *Sequential
}

// NewResNet builds the backbone from cfg with weights drawn from rng.
func NewResNet(rng *rand.Rand, cfg ResNetConfig) *ResNet {
	if cfg.BaseWidth <= 0 || cfg.InChannels <= 0 {
		panic(fmt.Sprintf("nn.NewResNet: bad config %+v", cfg))
	}
	body := NewSequential(
		NewConv2D(rng, cfg.Name+".stem", cfg.InChannels, cfg.BaseWidth, 3, 1, 1, false),
		NewBatchNorm2D(cfg.Name+".stembn", cfg.BaseWidth),
		NewReLU(),
	)
	inC := cfg.BaseWidth
	for stage := 0; stage < 4; stage++ {
		width := cfg.BaseWidth << uint(stage)
		for blk := 0; blk < cfg.StageDepths[stage]; blk++ {
			stride := 1
			if stage > 0 && blk == 0 {
				stride = 2 // downsample at each stage boundary
			}
			name := fmt.Sprintf("%s.s%d.b%d", cfg.Name, stage+1, blk)
			b := newResidualBlock(rng, name, inC, width, stride, cfg.Bottleneck)
			body.Append(b)
			inC = width * cfg.expansion()
		}
	}
	if cfg.FlattenPool {
		if cfg.FlattenH <= 0 || cfg.FlattenW <= 0 {
			panic(fmt.Sprintf("nn.NewResNet: FlattenPool requires FlattenH/W, got %dx%d",
				cfg.FlattenH, cfg.FlattenW))
		}
		body.Append(NewFlatten())
	} else {
		body.Append(NewGlobalAvgPool())
	}
	return &ResNet{Config: cfg, body: body}
}

// Forward maps images [N, C, H, W] to embeddings [N, OutDim].
func (r *ResNet) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return r.body.Forward(x, train)
}

// Backward propagates the embedding gradient back to the image gradient.
func (r *ResNet) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return r.body.Backward(dout)
}

// Params returns all backbone parameters.
func (r *ResNet) Params() []*Param { return r.body.Params() }

// OutDim returns the embedding dimension d'.
func (r *ResNet) OutDim() int { return r.Config.OutDim() }

// State aggregates the residual block's batch-norm running statistics.
func (b *residualBlock) State() []*tensor.Tensor {
	out := b.main.State()
	if b.shortcut != nil {
		out = append(out, b.shortcut.State()...)
	}
	return out
}

// State exposes every batch-norm running statistic of the backbone for
// checkpointing.
func (r *ResNet) State() []*tensor.Tensor { return r.body.State() }
