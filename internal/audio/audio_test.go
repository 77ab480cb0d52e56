package audio

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

func TestVoiceOfDeterministicAndSeparated(t *testing.T) {
	a := VoiceOf("Hyla faber")
	b := VoiceOf("Hyla faber")
	if a != b {
		t.Fatal("voice not deterministic")
	}
	c := VoiceOf("Scinax fuscomarginatus")
	if a == c {
		t.Fatal("different species share a voice")
	}
	if a.FundamentalHz < 400 || a.FundamentalHz > 4000 {
		t.Fatalf("fundamental = %f", a.FundamentalHz)
	}
	if a.PulseRateHz < 4 || a.PulseRateHz > 40 {
		t.Fatalf("pulse rate = %f", a.PulseRateHz)
	}
}

func TestSynthesizeShape(t *testing.T) {
	v := VoiceOf("Hyla faber")
	c := Synthesize(v, SynthesisParams{Duration: 0.5, Seed: 1})
	if c.SampleRate != 22050 {
		t.Fatalf("default sample rate = %d", c.SampleRate)
	}
	if got := float64(len(c.Samples)) / float64(c.SampleRate); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("duration = %f", got)
	}
	peak := 0.0
	for _, s := range c.Samples {
		if a := math.Abs(s); a > peak {
			peak = a
		}
	}
	if peak == 0 || peak > 1.0001 {
		t.Fatalf("peak = %f", peak)
	}
	// Same seed reproduces; different seed varies.
	c2 := Synthesize(v, SynthesisParams{Duration: 0.5, Seed: 1})
	c3 := Synthesize(v, SynthesisParams{Duration: 0.5, Seed: 2, NoiseLevel: 0.1})
	same := true
	for i := range c.Samples {
		if c.Samples[i] != c2.Samples[i] {
			same = false
			break
		}
	}
	if !same {
		t.Fatal("same seed differs")
	}
	diff := false
	for i := range c.Samples {
		if c.Samples[i] != c3.Samples[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("noisy clip identical to clean one")
	}
}

func TestWAVRoundTrip(t *testing.T) {
	v := VoiceOf("Hyla faber")
	c := Synthesize(v, SynthesisParams{Duration: 0.3, Seed: 4})
	var buf bytes.Buffer
	if err := WriteWAV(&buf, c); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 44+2*len(c.Samples) {
		t.Fatalf("wav size = %d", buf.Len())
	}
	got, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampleRate != c.SampleRate || len(got.Samples) != len(c.Samples) {
		t.Fatalf("round trip shape: %d Hz %d samples", got.SampleRate, len(got.Samples))
	}
	// 16-bit quantization error only.
	for i := range c.Samples {
		if math.Abs(got.Samples[i]-c.Samples[i]) > 1.0/32000 {
			t.Fatalf("sample %d drifted: %f vs %f", i, got.Samples[i], c.Samples[i])
		}
	}
}

func TestReadWAVErrors(t *testing.T) {
	if _, err := ReadWAV(bytes.NewReader([]byte("not a wav"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadWAV(bytes.NewReader(append([]byte("RIFF0000WAVE"), []byte("data\x04\x00\x00\x00abcd")...))); err == nil {
		t.Fatal("data-before-fmt accepted")
	}
	if err := WriteWAV(&bytes.Buffer{}, Clip{}); err == nil {
		t.Fatal("zero sample rate accepted")
	}
}

// TestFFTAgainstNaiveDFT verifies the radix-2 FFT on random data.
func TestFFTAgainstNaiveDFT(t *testing.T) {
	const n = 64
	re := make([]float64, n)
	im := make([]float64, n)
	for i := range re {
		re[i] = math.Sin(float64(i)*0.7) + 0.3*math.Cos(float64(i)*2.1)
	}
	wantRe := make([]float64, n)
	wantIm := make([]float64, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k) * float64(j) / n
			wantRe[k] += re[j]*math.Cos(ang) - im[j]*math.Sin(ang)
			wantIm[k] += re[j]*math.Sin(ang) + im[j]*math.Cos(ang)
		}
	}
	FFT(re, im)
	for k := 0; k < n; k++ {
		if math.Abs(re[k]-wantRe[k]) > 1e-9 || math.Abs(im[k]-wantIm[k]) > 1e-9 {
			t.Fatalf("bin %d: (%f,%f) vs naive (%f,%f)", k, re[k], im[k], wantRe[k], wantIm[k])
		}
	}
}

func TestFFTPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-power-of-two")
		}
	}()
	FFT(make([]float64, 12), make([]float64, 12))
}

func TestExtractRecoversVoiceParameters(t *testing.T) {
	for _, species := range []string{"Hyla faber", "Scinax fuscomarginatus", "Elachistocleis ovalis"} {
		v := VoiceOf(species)
		c := Synthesize(v, SynthesisParams{Duration: 1.5, Seed: 7, NoiseLevel: 0.02})
		f := Extract(c)
		// Dominant frequency within the sweep band around the fundamental.
		tol := math.Abs(v.SweepHz)/2 + 60
		if math.Abs(f.DominantHz-v.FundamentalHz) > tol {
			t.Errorf("%s: dominant %f vs fundamental %f (tol %f)", species, f.DominantHz, v.FundamentalHz, tol)
		}
		// Pulse rate within 20%.
		if f.PulseRateHz == 0 || math.Abs(f.PulseRateHz-v.PulseRateHz)/v.PulseRateHz > 0.25 {
			t.Errorf("%s: pulse rate %f vs voice %f", species, f.PulseRateHz, v.PulseRateHz)
		}
		if f.RMS <= 0 || f.CentroidHz <= 0 || f.BandwidthHz <= 0 {
			t.Errorf("%s: degenerate features %+v", species, f)
		}
	}
	// Empty clip.
	if f := Extract(Clip{}); f != (Features{}) {
		t.Fatalf("empty clip features = %+v", f)
	}
}

func buildIndex(tb testing.TB, nSpecies, clipsPer int, noise float64) *Index {
	tb.Helper()
	var clips []IndexedClip
	for s := 0; s < nSpecies; s++ {
		species := fmt.Sprintf("Species synthetica%d", s)
		v := VoiceOf(species)
		for c := 0; c < clipsPer; c++ {
			clip := Synthesize(v, SynthesisParams{
				Duration: 1.0, Seed: int64(s*1000 + c), NoiseLevel: noise,
			})
			clips = append(clips, IndexedClip{
				RecordID: fmt.Sprintf("R-%d-%d", s, c),
				Species:  species,
				Features: Extract(clip),
			})
		}
	}
	return NewIndex(clips)
}

func TestAcousticRetrievalCleanVsNoisy(t *testing.T) {
	clean := buildIndex(t, 12, 4, 0.01)
	accClean := clean.TopSpeciesAccuracy()
	if accClean < 0.8 {
		t.Fatalf("clean acoustic retrieval accuracy = %.2f, want ≥0.8", accClean)
	}
	// Heavy noise (legacy tape in the field): accuracy degrades — the
	// paper's "acoustic properties vary widely, hampering this kind of
	// retrieval".
	noisy := buildIndex(t, 12, 4, 0.8)
	accNoisy := noisy.TopSpeciesAccuracy()
	if accNoisy >= accClean {
		t.Fatalf("noise did not degrade retrieval: clean %.2f vs noisy %.2f", accClean, accNoisy)
	}
}

func TestIndexQuery(t *testing.T) {
	idx := buildIndex(t, 5, 3, 0.05)
	if len(idx.clips) != 15 {
		t.Fatalf("%d clips indexed", len(idx.clips))
	}
	probe := Extract(Synthesize(VoiceOf("Species synthetica2"), SynthesisParams{Duration: 1, Seed: 999, NoiseLevel: 0.05}))
	hits := idx.Query(probe, 3)
	if len(hits) != 3 {
		t.Fatalf("hits = %d", len(hits))
	}
	if hits[0].Species != "Species synthetica2" {
		t.Fatalf("nearest = %s (d=%.3f)", hits[0].Species, hits[0].Distance)
	}
	for i := 1; i < len(hits); i++ {
		if hits[i].Distance < hits[i-1].Distance {
			t.Fatal("hits unordered")
		}
	}
	// k=0 returns all.
	if got := idx.Query(probe, 0); len(got) != 15 {
		t.Fatalf("k=0 hits = %d", len(got))
	}
	// Tiny index.
	if acc := NewIndex(nil).TopSpeciesAccuracy(); acc != 0 {
		t.Fatalf("empty accuracy = %f", acc)
	}
}
