package ee

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"e3/internal/model"
	"e3/internal/workload"
)

func TestNewRejectsBadRamps(t *testing.T) {
	base := model.BERTBase()
	p := Policy{Kind: Entropy, Threshold: 0.4, RefThreshold: 0.4}
	if _, err := New("x", base, p, []int{0}, false); err == nil {
		t.Error("ramp at 0 accepted")
	}
	if _, err := New("x", base, p, []int{12}, false); err == nil {
		t.Error("ramp at final layer accepted (final head is not an early exit)")
	}
	if _, err := New("x", base, p, []int{3, 3}, false); err == nil {
		t.Error("duplicate ramp accepted")
	}
}

func TestNewRejectsBadThresholds(t *testing.T) {
	base := model.BERTBase()
	bad := []Policy{
		{Kind: Entropy, Threshold: 1.5, RefThreshold: 0.4},
		{Kind: Entropy, Threshold: 0.4, RefThreshold: 0},
		{Kind: Confidence, Threshold: 1, RefThreshold: 0.5},
		{Kind: PolicyKind(9), Threshold: 0.4, RefThreshold: 0.4},
	}
	for _, p := range bad {
		if _, err := New("x", base, p, []int{3}, false); err == nil {
			t.Errorf("policy %+v accepted", p)
		}
	}
}

// walkExit is the un-memoized exit rule: the depth scale recomputed from
// the policy on every call, then the first active ramp at or past it.
func walkExit(m *EEModel, p Policy, difficulty float64) int {
	L := m.Base.NumLayers()
	d := math.Min(1, math.Max(0, difficulty))
	ready := math.Max(0, d*p.DepthScale()) * float64(L)
	for _, r := range m.ActiveRamps() {
		if float64(r) >= ready {
			return r
		}
	}
	return L
}

func TestStoredDepthScaleMatchesPolicy(t *testing.T) {
	p := Policy{Kind: Entropy, Threshold: 0.3, RefThreshold: 0.4}
	orig, err := New("x", model.BERTBase(), p, everyLayer(12), false)
	if err != nil {
		t.Fatal(err)
	}
	toggled := orig.Clone()
	for _, k := range []int{2, 5, 6, 9} {
		if err := toggled.Disable(k); err != nil {
			t.Fatal(err)
		}
	}
	if err := toggled.Enable(5); err != nil {
		t.Fatal(err)
	}
	models := map[string]*EEModel{"clone": orig.Clone(), "disable/enable": toggled, "clone of toggled": toggled.Clone()}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		d := rng.Float64()*1.2 - 0.1
		for name, m := range models {
			if got, want := m.ExitLayerFor(d), walkExit(m, p, d); got != want {
				t.Fatalf("%s: ExitLayerFor(%v) = %d, direct walk %d", name, d, got, want)
			}
		}
	}
}

func TestDeeBERTRampLayout(t *testing.T) {
	m := NewDeeBERT(model.BERTBase(), 0.4)
	ramps := m.ActiveRamps()
	if len(ramps) != 11 {
		t.Fatalf("DeeBERT ramps = %d, want 11", len(ramps))
	}
	for i, r := range ramps {
		if r != i+1 {
			t.Fatalf("ramp positions %v, want 1..11", ramps)
		}
	}
}

func TestExitLayerAnchoredToDifficulty(t *testing.T) {
	// At the reference threshold, difficulty d exits at ~ceil(d·L).
	m := NewDeeBERT(model.BERTBase(), 0.4)
	cases := []struct {
		d    float64
		want int
	}{
		{0.01, 1}, {0.49, 6}, {0.5, 6}, {0.51, 7}, {0.99, 12}, {1.0, 12},
	}
	for _, c := range cases {
		if got := m.ExitLayerFor(c.d); got != c.want {
			t.Errorf("ExitLayerFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestThresholdShiftsExits(t *testing.T) {
	base := model.BERTBase()
	loose := NewDeeBERT(base, 0.5) // easier bound → earlier exits
	ref := NewDeeBERT(base, 0.4)
	tight := NewDeeBERT(base, 0.3)
	for d := 0.1; d < 0.95; d += 0.1 {
		l, r, ti := loose.ExitLayerFor(d), ref.ExitLayerFor(d), tight.ExitLayerFor(d)
		if l > r || r > ti {
			t.Fatalf("exit layers not ordered at d=%v: loose=%d ref=%d tight=%d", d, l, r, ti)
		}
	}
	// And strictly different somewhere.
	if loose.ExitLayerFor(0.5) >= tight.ExitLayerFor(0.5) {
		t.Error("thresholds have no effect at d=0.5")
	}
}

func TestConfidenceScaleDirection(t *testing.T) {
	base := model.T5Decoder(18)
	low := NewCALM(base, 0.15)  // easy bound → earlier exits
	ref := NewCALM(base, 0.25)  // anchor
	high := NewCALM(base, 0.60) // hard bound → later exits
	d := 0.4
	if !(low.ExitLayerFor(d) <= ref.ExitLayerFor(d) && ref.ExitLayerFor(d) <= high.ExitLayerFor(d)) {
		t.Errorf("confidence threshold direction wrong: %d %d %d",
			low.ExitLayerFor(d), ref.ExitLayerFor(d), high.ExitLayerFor(d))
	}
}

func TestPatienceShiftsExits(t *testing.T) {
	base := model.BERTLarge()
	quick6 := NewPABEE(base, 6) // reference
	quick3 := NewPABEE(base, 3) // less patience → earlier
	slow9 := NewPABEE(base, 9)  // more patience → later
	d := 0.5
	if !(quick3.ExitLayerFor(d) < quick6.ExitLayerFor(d) && quick6.ExitLayerFor(d) < slow9.ExitLayerFor(d)) {
		t.Errorf("patience direction wrong: %d %d %d",
			quick3.ExitLayerFor(d), quick6.ExitLayerFor(d), slow9.ExitLayerFor(d))
	}
}

func TestDisableRampPushesExitLater(t *testing.T) {
	m := NewDeeBERT(model.BERTBase(), 0.4)
	if got := m.ExitLayerFor(0.2); got != 3 {
		t.Fatalf("baseline exit = %d, want 3", got)
	}
	for _, r := range []int{3, 4} {
		if err := m.Disable(r); err != nil {
			t.Fatal(err)
		}
	}
	if got := m.ExitLayerFor(0.2); got != 5 {
		t.Errorf("exit with ramps 3,4 disabled = %d, want 5", got)
	}
	if err := m.Enable(3); err != nil {
		t.Fatal(err)
	}
	if got := m.ExitLayerFor(0.2); got != 3 {
		t.Errorf("exit after re-enable = %d, want 3", got)
	}
}

func TestDisableUnknownRamp(t *testing.T) {
	m := NewBranchyNet(model.ResNet50()) // ramps at 4, 8, 12
	if err := m.Disable(5); err == nil {
		t.Error("disabling nonexistent ramp succeeded")
	}
	if err := m.Enable(5); err == nil {
		t.Error("enabling nonexistent ramp succeeded")
	}
}

func TestAllRampsDisabledRunsFullModel(t *testing.T) {
	m := NewDeeBERT(model.BERTBase(), 0.4)
	for _, r := range m.Ramps() {
		if err := m.Disable(r); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0.0; d <= 1.0; d += 0.1 {
		if got := m.ExitLayerFor(d); got != 12 {
			t.Fatalf("with all ramps disabled, exit = %d, want 12", got)
		}
	}
}

func TestCloneIsIndependent(t *testing.T) {
	m := NewDeeBERT(model.BERTBase(), 0.4)
	c := m.Clone()
	if err := c.Disable(3); err != nil {
		t.Fatal(err)
	}
	if !m.HasRampAfter(3) {
		t.Error("disabling ramp on clone affected original")
	}
	if c.HasRampAfter(3) {
		t.Error("clone ramp not disabled")
	}
}

func TestRampFLOPs(t *testing.T) {
	bert := NewDeeBERT(model.BERTBase(), 0.4)
	llama := NewLlamaEE(model.Llama318B())
	// Classifier ramp ≈ 2·768² ≈ 1.18 MFLOPs.
	if got := bert.RampFLOPs(); got < 1e6 || got > 2e6 {
		t.Errorf("BERT ramp FLOPs = %.3g, want ~1.2e6", got)
	}
	// LM-head ramp ≈ 2·4096·128256 ≈ 1.05 GFLOPs — must dwarf a layer's
	// per-token cost to reproduce Figure 12.
	if got := llama.RampFLOPs(); got < llama.Base.Layers[0].FLOPs {
		t.Errorf("Llama ramp FLOPs %.3g not ≥ layer FLOPs %.3g", got, llama.Base.Layers[0].FLOPs)
	}
}

func TestCalibrationGLUEMidModelExit(t *testing.T) {
	// Figure 3: roughly half the GLUE samples exit by ramp 6 of DeeBERT.
	m := NewDeeBERT(model.BERTBase(), 0.4)
	rng := rand.New(rand.NewSource(11))
	for name, dist := range map[string]workload.Dist{"sst2": workload.SST2(), "qnli": workload.QNLI()} {
		exited := 0
		const n = 20000
		for i := 0; i < n; i++ {
			if m.ExitLayerFor(dist.Sample(rng)) <= 6 {
				exited++
			}
		}
		frac := float64(exited) / n
		if frac < 0.35 || frac > 0.65 {
			t.Errorf("%s: frac exited by ramp 6 = %v, want ~0.5", name, frac)
		}
	}
}

func TestCalibrationCALM(t *testing.T) {
	// §5.1.3: ~70% of WMT tokens exit by decoder layer 2 of 8.
	m := NewCALM(model.T5Decoder(25), 0.25)
	rng := rand.New(rand.NewSource(12))
	dist := workload.WMT()
	exited := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.ExitLayerFor(dist.Sample(rng)) <= 2 {
			exited++
		}
	}
	frac := float64(exited) / n
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("CALM: frac exited by layer 2 = %v, want ~0.7", frac)
	}
}

func TestCalibrationLlamaBoolQ(t *testing.T) {
	// §5.1.3: ~50% of BoolQ inputs exit by layer 25 of 32.
	m := NewLlamaEE(model.Llama318B())
	rng := rand.New(rand.NewSource(13))
	dist := workload.BoolQ()
	exited := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.ExitLayerFor(dist.Sample(rng)) <= 25 {
			exited++
		}
	}
	frac := float64(exited) / n
	if frac < 0.38 || frac > 0.62 {
		t.Errorf("Llama: frac exited by layer 25 = %v, want ~0.5", frac)
	}
}

func TestCalibrationDistilBERTMidExit(t *testing.T) {
	// §5.1.2: a major fraction of DistilBERT-EE inputs exit right after
	// layer 3 (the middle of the 6-layer model).
	m := NewDistilBERTEE(model.DistilBERT(), 0.4)
	rng := rand.New(rand.NewSource(14))
	dist := workload.Mix(0.8)
	exited := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if m.ExitLayerFor(dist.Sample(rng)) <= 3 {
			exited++
		}
	}
	if frac := float64(exited) / n; frac < 0.5 {
		t.Errorf("DistilBERT-EE: frac exited by layer 3 = %v, want > 0.5", frac)
	}
}

func TestExitLayerMonotoneInDifficulty(t *testing.T) {
	models := []*EEModel{
		NewDeeBERT(model.BERTBase(), 0.4),
		NewBranchyNet(model.ResNet50()),
		NewCALM(model.T5Decoder(18), 0.25),
		NewPABEE(model.BERTLarge(), 6),
		NewLlamaEE(model.Llama318B()),
	}
	f := func(ra, rb uint16) bool {
		a := float64(ra) / 65535
		b := float64(rb) / 65535
		if a > b {
			a, b = b, a
		}
		for _, m := range models {
			ea, eb := m.ExitLayerFor(a), m.ExitLayerFor(b)
			if ea > eb || ea < 1 || eb > m.Base.NumLayers() {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMeanExitLayer(t *testing.T) {
	m := NewDeeBERT(model.BERTBase(), 0.4)
	got := m.MeanExitLayer([]float64{0.01, 0.99})
	if math.Abs(got-6.5) > 1e-9 {
		t.Errorf("mean exit = %v, want 6.5", got)
	}
	if got := m.MeanExitLayer(nil); got != 12 {
		t.Errorf("mean exit of empty = %v, want L", got)
	}
}

func TestPolicyKindString(t *testing.T) {
	if Entropy.String() != "entropy" || Confidence.String() != "confidence" || Patience.String() != "patience" {
		t.Error("PolicyKind.String broken")
	}
}

func TestDepthScalePanicsOnBadThreshold(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad threshold did not panic")
		}
	}()
	Policy{Kind: Entropy, Threshold: 1.5, RefThreshold: 0.4}.DepthScale()
}
