package audio

import (
	"math"
	"sort"
)

// Features is the acoustic feature vector used for similarity retrieval —
// the standard bioacoustic descriptors (dominant frequency, spectral
// centroid/bandwidth, pulse rate, energy).
type Features struct {
	DominantHz  float64
	CentroidHz  float64
	BandwidthHz float64
	PulseRateHz float64
	RMS         float64
}

// Extract computes the feature vector of a clip.
func Extract(c Clip) Features {
	if len(c.Samples) == 0 || c.SampleRate <= 0 {
		return Features{}
	}
	power, hzPerBin := PowerSpectrum(c.Samples, c.SampleRate)
	// Ignore DC and near-DC rumble.
	minBin := int(50/hzPerBin) + 1
	var f Features
	var total, weighted float64
	best := minBin
	for i := minBin; i < len(power); i++ {
		total += power[i]
		weighted += power[i] * float64(i)
		if power[i] > power[best] {
			best = i
		}
	}
	f.DominantHz = float64(best) * hzPerBin
	if total > 0 {
		centroidBin := weighted / total
		f.CentroidHz = centroidBin * hzPerBin
		var varsum float64
		for i := minBin; i < len(power); i++ {
			d := float64(i) - centroidBin
			varsum += power[i] * d * d
		}
		f.BandwidthHz = math.Sqrt(varsum/total) * hzPerBin
	}
	// RMS.
	var sq float64
	for _, s := range c.Samples {
		sq += s * s
	}
	f.RMS = math.Sqrt(sq / float64(len(c.Samples)))
	f.PulseRateHz = pulseRate(c)
	return f
}

// pulseRate estimates amplitude-modulation rate from the autocorrelation of
// the rectified, smoothed envelope.
func pulseRate(c Clip) float64 {
	// Envelope at ~200 Hz resolution.
	hop := c.SampleRate / 200
	if hop < 1 {
		hop = 1
	}
	var env []float64
	for start := 0; start+hop <= len(c.Samples); start += hop {
		sum := 0.0
		for _, s := range c.Samples[start : start+hop] {
			sum += math.Abs(s)
		}
		env = append(env, sum/float64(hop))
	}
	if len(env) < 16 {
		return 0
	}
	// Remove mean.
	mean := 0.0
	for _, e := range env {
		mean += e
	}
	mean /= float64(len(env))
	for i := range env {
		env[i] -= mean
	}
	// Autocorrelation over plausible pulse periods (2–60 Hz).
	envRate := float64(c.SampleRate) / float64(hop)
	minLag := int(envRate / 60)
	maxLag := int(envRate / 2)
	if maxLag >= len(env) {
		maxLag = len(env) - 1
	}
	if minLag < 1 {
		minLag = 1
	}
	corrs := make([]float64, maxLag+1)
	bestCorr := 0.0
	for lag := minLag; lag <= maxLag; lag++ {
		corr := 0.0
		for i := 0; i+lag < len(env); i++ {
			corr += env[i] * env[i+lag]
		}
		corrs[lag] = corr
		if corr > bestCorr {
			bestCorr = corr
		}
	}
	if bestCorr <= 0 {
		return 0
	}
	// Octave disambiguation: the double period correlates almost as well as
	// the true one, so take the smallest lag within 90% of the peak.
	for lag := minLag; lag <= maxLag; lag++ {
		if corrs[lag] >= 0.9*bestCorr {
			return envRate / float64(lag)
		}
	}
	return 0
}

// --- similarity retrieval ---

// IndexedClip pairs a feature vector with its record identity.
type IndexedClip struct {
	RecordID string
	Species  string
	Features Features
}

// Index is a nearest-neighbour index over acoustic features (linear scan
// with per-dimension normalization — adequate at collection scale).
type Index struct {
	clips []IndexedClip
	scale Features // per-dimension normalization factors
}

// NewIndex builds the index and computes normalization from the data.
func NewIndex(clips []IndexedClip) *Index {
	idx := &Index{clips: append([]IndexedClip(nil), clips...)}
	maxAbs := func(get func(Features) float64) float64 {
		m := 1e-9
		for _, c := range idx.clips {
			if v := math.Abs(get(c.Features)); v > m {
				m = v
			}
		}
		return m
	}
	idx.scale = Features{
		DominantHz:  maxAbs(func(f Features) float64 { return f.DominantHz }),
		CentroidHz:  maxAbs(func(f Features) float64 { return f.CentroidHz }),
		BandwidthHz: maxAbs(func(f Features) float64 { return f.BandwidthHz }),
		PulseRateHz: maxAbs(func(f Features) float64 { return f.PulseRateHz }),
		RMS:         maxAbs(func(f Features) float64 { return f.RMS }),
	}
	return idx
}

func (idx *Index) distance(a, b Features) float64 {
	d := 0.0
	add := func(x, y, s float64) {
		v := (x - y) / s
		d += v * v
	}
	add(a.DominantHz, b.DominantHz, idx.scale.DominantHz)
	add(a.CentroidHz, b.CentroidHz, idx.scale.CentroidHz)
	add(a.BandwidthHz, b.BandwidthHz, idx.scale.BandwidthHz)
	add(a.PulseRateHz, b.PulseRateHz, idx.scale.PulseRateHz)
	add(a.RMS, b.RMS, idx.scale.RMS)
	return math.Sqrt(d)
}

// Hit is one retrieval result.
type Hit struct {
	IndexedClip
	Distance float64
}

// Query returns the k nearest clips to the feature vector, closest first.
func (idx *Index) Query(f Features, k int) []Hit {
	hits := make([]Hit, 0, len(idx.clips))
	for _, c := range idx.clips {
		hits = append(hits, Hit{IndexedClip: c, Distance: idx.distance(f, c.Features)})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Distance != hits[j].Distance {
			return hits[i].Distance < hits[j].Distance
		}
		return hits[i].RecordID < hits[j].RecordID
	})
	if k > 0 && len(hits) > k {
		hits = hits[:k]
	}
	return hits
}

// TopSpeciesAccuracy evaluates retrieval: for each indexed clip, query the
// index (excluding the clip itself) and score 1 when the nearest neighbour
// is the same species. This measures how well acoustic features alone
// identify species — the paper's "hampered" retrieval mode.
func (idx *Index) TopSpeciesAccuracy() float64 {
	if len(idx.clips) < 2 {
		return 0
	}
	correct := 0
	for _, c := range idx.clips {
		hits := idx.Query(c.Features, 2)
		for _, h := range hits {
			if h.RecordID == c.RecordID {
				continue
			}
			if h.Species == c.Species {
				correct++
			}
			break
		}
	}
	return float64(correct) / float64(len(idx.clips))
}
