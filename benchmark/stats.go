package main

import (
	"math/bits"
	"sort"
)

// quantile returns the q-th quantile of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// windows collects raw latency samples into fixed-length time windows. The
// host this runs on is a shared virtual machine: it freezes as a whole for
// 50–250 ms several times in ten seconds (an idle canary process sees the
// same gaps at the same instants) and slows by a fifth for seconds at a
// time, and the disturbance only ever makes a window worse. The gated
// latency is therefore the best-decile window's value — the 10th percentile
// across windows of each window's percentile — which estimates the
// undisturbed figure; a real regression moves every window, so it moves that
// one too. The pooled percentile is what a user of this host experienced,
// freezes included. Samples are kept raw (a run holds at most a few hundred
// thousand) because the end-to-end percentiles must not be quantised by
// histogram buckets.
type windows struct {
	lenNS   int64
	samples [][]float64 // per window, microseconds
	n       int64       // events counted, sampled or not
}

func newWindows(lenNS, phaseNS int64) *windows {
	return &windows{lenNS: lenNS, samples: make([][]float64, max(int(phaseNS/lenNS), 1))}
}

// inPhase reports whether an event at offset atNS from the phase start
// falls into a whole window, and counts it if so.
func (w *windows) inPhase(atNS int64) bool {
	if atNS < 0 || int(atNS/w.lenNS) >= len(w.samples) {
		return false
	}
	w.n++
	return true
}

// add counts one event and records its latency; events past the last whole
// window are dropped.
func (w *windows) add(atNS int64, us float64) {
	if w.inPhase(atNS) {
		i := int(atNS / w.lenNS)
		w.samples[i] = append(w.samples[i], us)
	}
}

func (w *windows) merge(o *windows) {
	for i := range w.samples {
		w.samples[i] = append(w.samples[i], o.samples[i]...)
	}
	w.n += o.n
}

func (w *windows) total() int64 { return w.n }

// bestDecile is the best-decile window's q-th quantile: the 10th percentile
// over non-empty windows.
func (w *windows) bestDecile(q float64) float64 {
	var per []float64
	for _, s := range w.samples {
		if len(s) == 0 {
			continue
		}
		sort.Float64s(s)
		per = append(per, quantile(s, q))
	}
	sort.Float64s(per)
	return quantile(per, 0.10)
}

// pooled is the q-th quantile of every sample of the phase.
func (w *windows) pooled(q float64) float64 {
	var all []float64
	for _, s := range w.samples {
		all = append(all, s...)
	}
	sort.Float64s(all)
	return quantile(all, q)
}

// hist is a log-linear histogram over nanoseconds: 32 sub-buckets per
// octave, so a quantile is within about 3 % of the true value and a
// record is two shifts and an increment. The ladder aggregates every span
// into one of these per span name; only a 1-in-64 sample reaches disk.
type hist struct {
	b   [60 * 32]int64
	n   int64
	sum int64
}

func (h *hist) record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n++
	h.sum += ns
	v := uint64(ns)
	if v < 32 {
		h.b[v]++
		return
	}
	l := bits.Len64(v)
	h.b[(l-5)*32+int((v>>(l-6))&31)]++
}

func (h *hist) mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// quantile returns the midpoint of the bucket holding the q-th sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	want := int64(q * float64(h.n))
	if want < 1 {
		want = 1
	}
	var cum int64
	for i, c := range h.b {
		cum += c
		if cum >= want {
			if i < 32 {
				return float64(i)
			}
			lo := float64(uint64(32+i%32) << (i/32 - 1))
			return lo * (1 + 1.0/64)
		}
	}
	return 0
}
