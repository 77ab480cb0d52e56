// Package audio implements the bioacoustic substrate of the collection: the
// sound recordings the FNJV preserves. It synthesizes species-specific
// vocalizations deterministically (each species gets a stable "voice" —
// fundamental frequency, pulse rate, sweep), encodes/decodes PCM WAV, and
// extracts spectral features (FFT-based dominant frequency, centroid,
// bandwidth, pulse rate) for the acoustic-similarity retrieval the paper's
// §II.C contrasts with metadata retrieval: "acoustic properties of animal
// sounds vary widely, hampering this kind of retrieval".
package audio

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// Voice is the stable acoustic signature of a species: real vocalizations
// are stereotyped per species (that is why call playback works in the
// field), so the synthesizer derives one voice per species name.
type Voice struct {
	// FundamentalHz is the carrier frequency of the call.
	FundamentalHz float64
	// SweepHz is the linear frequency sweep over each pulse (can be negative).
	SweepHz float64
	// PulseRateHz is how many amplitude pulses per second the call carries.
	PulseRateHz float64
	// PulseDuty is the fraction of each pulse period with sound (0..1].
	PulseDuty float64
	// Harmonic2 is the relative amplitude of the second harmonic.
	Harmonic2 float64
}

// VoiceOf derives a deterministic voice from a species name. Different
// species get well-separated voices; the same name always maps to the same
// voice.
func VoiceOf(species string) Voice {
	h := fnv.New64a()
	h.Write([]byte(species))
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return Voice{
		FundamentalHz: 400 + rng.Float64()*3600, // 0.4–4 kHz, typical for frogs/birds
		SweepHz:       (rng.Float64() - 0.5) * 800,
		PulseRateHz:   4 + rng.Float64()*36, // 4–40 pulses/s
		PulseDuty:     0.3 + rng.Float64()*0.5,
		Harmonic2:     rng.Float64() * 0.5,
	}
}

// Clip is a mono audio buffer.
type Clip struct {
	SampleRate int
	Samples    []float64 // in [-1, 1]
}

// SynthesisParams controls one synthesized recording.
type SynthesisParams struct {
	SampleRate int     // default 22050
	Duration   float64 // seconds, default 1.0
	// NoiseLevel is the RMS of the added background noise relative to the
	// call amplitude (field recordings are noisy; legacy tapes more so).
	NoiseLevel float64
	// Seed varies the individual rendition (same voice, different animal).
	Seed int64
}

// Synthesize renders one call of the voice: a pulsed, slightly swept tone
// with a second harmonic, plus background noise.
func Synthesize(v Voice, p SynthesisParams) Clip {
	sr := p.SampleRate
	if sr <= 0 {
		sr = 22050
	}
	dur := p.Duration
	if dur <= 0 {
		dur = 1.0
	}
	n := int(float64(sr) * dur)
	rng := rand.New(rand.NewSource(p.Seed))
	samples := make([]float64, n)
	phase := 0.0
	for i := 0; i < n; i++ {
		t := float64(i) / float64(sr)
		// Pulse envelope.
		pulsePos := math.Mod(t*v.PulseRateHz, 1.0)
		env := 0.0
		if pulsePos < v.PulseDuty {
			// Raised-cosine pulse shape.
			env = 0.5 * (1 - math.Cos(2*math.Pi*pulsePos/v.PulseDuty))
		}
		// Instantaneous frequency with sweep across the whole call.
		freq := v.FundamentalHz + v.SweepHz*(t/dur-0.5)
		phase += 2 * math.Pi * freq / float64(sr)
		s := math.Sin(phase) + v.Harmonic2*math.Sin(2*phase)
		samples[i] = env*s*0.7 + p.NoiseLevel*rng.NormFloat64()
	}
	// Normalize to [-1, 1].
	peak := 0.0
	for _, s := range samples {
		if a := math.Abs(s); a > peak {
			peak = a
		}
	}
	if peak > 1 {
		for i := range samples {
			samples[i] /= peak
		}
	}
	return Clip{SampleRate: sr, Samples: samples}
}
