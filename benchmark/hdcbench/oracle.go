package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"

	"repro/internal/classmem"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/hdc"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// frozenEncoder rebuilds the image encoder hdcserve registers as its
// embedders — same constructor, same seed offset — so an in-process
// plan is the server's plan bit for bit.
func frozenEncoder(img, width int) (*core.ImageEncoder, error) {
	rng := rand.New(rand.NewSource(serverSeed + 0x5eed))
	enc := core.NewImageEncoder(rng, nn.MicroResNet50Config(width), probeDim)
	if err := enc.Compiled().Precompile(3, img, img); err != nil {
		return nil, err
	}
	return enc, nil
}

// calibrationBatch is hdcserve's int8 calibration batch: a small
// SynthCUB at the serving geometry under its own seed offset.
func calibrationBatch(img int) *tensor.Tensor {
	cfg := dataset.DefaultConfig()
	cfg.NumClasses = 8
	cfg.ImagesPerClass = 4
	cfg.Height, cfg.Width = img, img
	cfg.Seed = serverSeed + 0xca11b
	data := dataset.Generate(cfg)
	ids := make([]int, len(data.Instances))
	classes := make([]int, cfg.NumClasses)
	for i := range ids {
		ids[i] = i
	}
	for c := range classes {
		classes[c] = c
	}
	return data.MakeBatch(ids, dataset.ClassIndexMap(classes), nil, nil).Images
}

// servingPlan is the compiled plan behind the workload's embedder name.
func servingPlan(w workload) (*nn.CompiledNet, error) {
	enc, err := frozenEncoder(w.embedImg, w.embedWidth)
	if err != nil {
		return nil, err
	}
	if w.embedder == "resnet" {
		return enc.Compiled(), nil
	}
	return enc.CompiledInt8(calibrationBatch(w.embedImg))
}

// signPack is hdcserve's enroll conversion: component signs, packed.
func signPack(vec []float32) *hdc.Binary {
	bp := make(hdc.Bipolar, len(vec))
	for i, v := range vec {
		if v < 0 {
			bp[i] = -1
		} else {
			bp[i] = 1
		}
	}
	return hdc.FromBipolar(bp)
}

// oracle checks a run's responses against an in-process mirror of the
// served class memory: the seed-derived base plus, in lock-step, every
// enrollment the run made. A response tagged with epoch e must equal,
// byte for byte, that memory's ranking at epoch e.
type oracle struct {
	w      workload
	pools  *pools
	probes *infer.Batch // one probe per pool slot
	// sabotage shifts every expected top class by one — the test hook
	// that proves a wrong answer fails the run.
	sabotage bool
}

func newOracle(w workload, p *pools) (*oracle, error) {
	o := &oracle{w: w, pools: p}
	x := tensor.New(poolSize, probeDim)
	if w.embedder != "" {
		plan, err := servingPlan(w)
		if err != nil {
			return nil, err
		}
		emb := serve.NewNetEmbedder(w.embedder, plan, []int{3, w.embedImg, w.embedImg}, probeDim)
		for i, in := range p.inputs {
			out, err := emb.Embed(tensor.FromSlice(in, 1, 3, w.embedImg, w.embedImg))
			if err != nil {
				return nil, err
			}
			copy(x.Row(i), out.Row(0))
		}
	} else {
		for i, in := range p.inputs {
			copy(x.Row(i), in)
		}
	}
	o.probes = infer.DenseBatch(x)
	return o, nil
}

// rankings ranks the pool against store at its current epoch.
func (o *oracle) rankings(store *classmem.Versioned) ([]infer.Result, error) {
	be, err := store.Backend(o.w.model)
	if err != nil {
		return nil, err
	}
	eng, err := infer.NewChecked(be)
	if err != nil {
		return nil, err
	}
	batch := o.probes
	if eng.Requires() == infer.RepPacked {
		batch = infer.PackedBatch(infer.PackSign(o.probes.Dense))
	}
	return eng.TryQuery(batch, topK)
}

// check verifies every response of one server's life (one fleet, or one
// replayed stack) and returns one message per failed operation.
func (o *oracle) check(samples []sample) []string {
	store := classmem.NewVersioned(o.w.classes, probeDim, serverSeed)
	var fails []string
	failf := func(s sample, format string, args ...any) {
		fails = append(fails, fmt.Sprintf("seq %d phase %d: ", s.seq, s.phase)+fmt.Sprintf(format, args...))
	}

	// Enrollments first: the epoch each one reports orders the replay.
	type enrolled struct {
		epoch uint64
		slot  int
	}
	var enrolls []enrolled
	var classifies []sample
	needed := map[uint64]bool{}
	for _, s := range samples {
		if s.status != http.StatusOK {
			failf(s, "status %d: %s", s.status, s.body)
			continue
		}
		if s.kind != kindEnroll {
			classifies = append(classifies, s)
			continue
		}
		var er serve.EnrollResponse
		if err := json.Unmarshal(s.body, &er); err != nil {
			failf(s, "enroll response: %v", err)
			continue
		}
		if want := o.pools.enrollLabel(s.slot); er.Label != want {
			failf(s, "enroll echoed label %q, want %q", er.Label, want)
			continue
		}
		enrolls = append(enrolls, enrolled{er.Epoch, s.slot})
	}
	sort.Slice(enrolls, func(i, j int) bool { return enrolls[i].epoch < enrolls[j].epoch })

	type reply struct {
		s     sample
		model string
		epoch uint64
		top   []serve.ClassifyHit
	}
	replies := make([]reply, 0, len(classifies))
	for _, s := range classifies {
		// ClassifyResponse and EmbedClassifyResponse share these fields.
		var cr serve.ClassifyResponse
		if err := json.Unmarshal(s.body, &cr); err != nil {
			failf(s, "classify response: %v", err)
			continue
		}
		replies = append(replies, reply{s, cr.Model, cr.Epoch, cr.TopK})
		needed[cr.Epoch] = true
	}

	// Replay the enrollments in epoch order, ranking the pool at every
	// epoch some response was served at.
	want := map[uint64][]infer.Result{}
	snap := func(epoch uint64) {
		if !needed[epoch] {
			return
		}
		r, err := o.rankings(store)
		if err != nil {
			fails = append(fails, fmt.Sprintf("oracle ranking at epoch %d: %v", epoch, err))
			return
		}
		want[epoch] = r
	}
	snap(0)
	for i, e := range enrolls {
		if e.epoch != uint64(i+1) {
			fails = append(fails, fmt.Sprintf("enrollment epochs are not 1..%d: position %d reports epoch %d", len(enrolls), i+1, e.epoch))
			break
		}
		got, err := store.Enroll(o.pools.enrollLabel(e.slot), signPack(o.pools.enrollVecs[e.slot%poolSize]))
		if err != nil || got != e.epoch {
			fails = append(fails, fmt.Sprintf("oracle enroll at epoch %d: got %d, %v", e.epoch, got, err))
			break
		}
		snap(e.epoch)
	}
	if o.sabotage {
		for _, ranks := range want {
			for i := range ranks {
				ranks[i].TopK[0].Class++
			}
		}
	}

	for _, r := range replies {
		ranks, ok := want[r.epoch]
		if !ok {
			failf(r.s, "served at epoch %d, which the enrollment replay never reached", r.epoch)
			continue
		}
		if r.model != o.w.model {
			failf(r.s, "served by model %q, want %q", r.model, o.w.model)
			continue
		}
		exp := ranks[r.s.slot].TopK
		if len(r.top) != len(exp) {
			failf(r.s, "%d hits, want %d", len(r.top), len(exp))
			continue
		}
		for i, h := range r.top {
			if h.Class != exp[i].Class || h.Label != exp[i].Label || h.Score != exp[i].Score {
				failf(r.s, "slot %d epoch %d hit %d: got (%d %q %v), want (%d %q %v)", r.s.slot, r.epoch, i,
					h.Class, h.Label, h.Score, exp[i].Class, exp[i].Label, exp[i].Score)
				break
			}
		}
	}
	return fails
}
